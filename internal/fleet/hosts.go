package fleet

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Host is one line of a -hosts inventory: a worker host (started with
// `pi2bench -serve`) plus how many connections to open to it.
type Host struct {
	// Addr is the host's listen address (host:port).
	Addr string
	// Workers is how many coordinator connections to dial — each is an
	// independent worker slot running one cell at a time, so it is the
	// host's cell-level parallelism. Default 1.
	Workers int
}

// ParseHosts reads a host inventory: one host per line,
//
//	addr [workers=N]
//
// with '#' comments and blank lines ignored. Every host runs cells with
// the coordinator's own -shards/-ff, so a fleet's records stay
// byte-identical to `-jobs 1`. Example:
//
//	# big box takes 8 cells at a time
//	10.0.0.7:9000  workers=8
//	10.0.0.9:9000  workers=2
func ParseHosts(r io.Reader) ([]Host, error) {
	var hosts []Host
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		h := Host{Addr: fields[0], Workers: 1}
		for _, f := range fields[1:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("hosts line %d: %q is not key=value", line, f)
			}
			if k != "workers" {
				return nil, fmt.Errorf("hosts line %d: unknown key %q (want workers)", line, k)
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("hosts line %d: workers=%q (want a positive integer)", line, v)
			}
			h.Workers = n
		}
		hosts = append(hosts, h)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("hosts inventory is empty")
	}
	return hosts, nil
}
