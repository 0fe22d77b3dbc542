// Command dgramc sends one verb to a dynallocd shard's dgram listener
// (the daemon's only data plane) and exits 1 when the shard refuses it:
//
//	dgramc -addr A crash BIN K  # add K balls to bin BIN
//	dgramc -addr A admit N      # admit N balls in one ADMIT frame
//	dgramc -addr A free N       # N scenario departures
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"dynalloc/internal/rng"
	"dynalloc/internal/router"
)

func main() {
	addr := flag.String("addr", "", "the shard's dgram address")
	flag.Parse()
	if err := run(*addr, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "dgramc:", err)
		os.Exit(1)
	}
}

func run(addr string, args []string) error {
	arity := map[string]int{"crash": 3, "admit": 2, "free": 2}
	if len(args) == 0 || arity[args[0]] != len(args) {
		return fmt.Errorf("usage: dgramc -addr A crash BIN K | admit N | free N")
	}
	nums := make([]uint32, len(args)) // the wire's width: never truncated
	for i := 1; i < len(args); i++ {
		v, err := strconv.ParseUint(args[i], 10, 32)
		if err != nil {
			return fmt.Errorf("bad argument %q", args[i])
		}
		nums[i] = uint32(v)
	}
	rt, err := router.New(router.Options{Shards: []string{addr}})
	if err != nil {
		return err
	}
	defer rt.Close()
	ses, r := rt.NewSession(), rng.New(1)
	defer ses.Close()
	switch args[0] {
	case "crash":
		_, err = ses.Crash(0, nums[1], nums[2])
	case "admit":
		_, err = ses.AdmitBatch(r, int(nums[1]), nil)
	case "free":
		for i := uint32(0); i < nums[1] && err == nil; i++ {
			_, err = ses.Free(r)
		}
	}
	return err
}
