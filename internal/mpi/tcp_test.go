package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/omp4go/omp4go/internal/metrics"
)

// TestMain doubles as the rank entry point for tests that need real
// child processes (the go-test helper-process pattern): a child is
// this same test binary re-executed with OMP4GO_MPI_TEST_HELPER set.
func TestMain(m *testing.M) {
	switch os.Getenv("OMP4GO_MPI_TEST_HELPER") {
	case "":
		os.Exit(m.Run())
	case "connect-exit":
		// Join the rendezvous, then die immediately — the peer under
		// test must observe an error, not a hang.
		cfg, ok, err := EnvTCPConfig(os.Getenv)
		if !ok || err != nil {
			fmt.Fprintln(os.Stderr, "helper: bad env config:", err)
			os.Exit(2)
		}
		c, err := ConnectTCP(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "helper: connect:", err)
			os.Exit(3)
		}
		_ = c.Close()
		os.Exit(0)
	default:
		fmt.Fprintln(os.Stderr, "unknown helper mode")
		os.Exit(2)
	}
}

// freeAddr reserves a loopback port and releases it for the test to
// rendezvous on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// runTCPWorld runs body on size ranks connected over real loopback
// sockets, each rank a goroutine in this process, and joins their
// errors. A deadline converts deadlocks into failures.
func runTCPWorld(t *testing.T, size int, mk func(rank int) TCPConfig, body func(c *Comm) error) error {
	t.Helper()
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := ConnectTCP(mk(rank))
			if err != nil {
				errs[rank] = err
				return
			}
			defer c.Close()
			errs[rank] = body(c)
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("TCP world deadlocked")
	}
	return errors.Join(errs...)
}

func basicTCPConfig(addr string, size int) func(rank int) TCPConfig {
	return func(rank int) TCPConfig {
		return TCPConfig{Rank: rank, Size: size, Addr: addr, DialTimeout: 15 * time.Second}
	}
}

func TestTCPSendRecvAndRequeue(t *testing.T) {
	addr := freeAddr(t)
	err := runTCPWorld(t, 2, basicTCPConfig(addr, 2), func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []float64{1.5, -2.5}); err != nil {
				return err
			}
			if err := c.SendObj(1, 9, map[string]float64{"pi": 3.14}); err != nil {
				return err
			}
			return c.Send(1, 2, []float64{42})
		}
		// Receive tag 2 first: the tag-1 message must requeue, exactly
		// as on the local transport.
		d2, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		d1, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		o, err := c.RecvObj(0, 9)
		if err != nil {
			return err
		}
		m, ok := o.(map[string]float64)
		if d2[0] != 42 || len(d1) != 2 || d1[0] != 1.5 || d1[1] != -2.5 || !ok || m["pi"] != 3.14 {
			t.Errorf("got tag2=%v tag1=%v obj=%v", d2, d1, o)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPCollectives(t *testing.T) {
	addr := freeAddr(t)
	const size = 4
	err := runTCPWorld(t, size, basicTCPConfig(addr, size), func(c *Comm) error {
		sum, err := c.Allreduce(float64(c.Rank()+1), OpSum)
		if err != nil {
			return err
		}
		if sum != 1+2+3+4 {
			t.Errorf("rank %d: allreduce = %v", c.Rank(), sum)
		}
		all, err := c.Allgather([]float64{float64(c.Rank() * 10)})
		if err != nil {
			return err
		}
		if len(all) != size || all[2] != 20 {
			t.Errorf("rank %d: allgather = %v", c.Rank(), all)
		}
		got, err := c.Bcast([]float64{7, 8}, 3)
		if err != nil {
			return err
		}
		if len(got) != 2 || got[1] != 8 {
			t.Errorf("rank %d: bcast = %v", c.Rank(), got)
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPBitIdenticalWithLocal pins the transports' defining shared
// property: the exact same bits come out of a collective exchange
// whether ranks are goroutines over channels or processes-worth of
// sockets, because both run the same tree algorithms.
func TestTCPBitIdenticalWithLocal(t *testing.T) {
	const size = 4
	type out struct {
		red  uint64
		gath []uint64
	}
	exchange := func(c *Comm) (out, error) {
		v := math.Sqrt(float64(c.Rank()) + 0.137)
		red, err := c.Allreduce(v, OpSum)
		if err != nil {
			return out{}, err
		}
		all, err := c.Allgather([]float64{v * red, v / (red + 1)})
		if err != nil {
			return out{}, err
		}
		o := out{red: math.Float64bits(red), gath: make([]uint64, len(all))}
		for i, x := range all {
			o.gath[i] = math.Float64bits(x)
		}
		return o, nil
	}
	var localOut, tcpOut [size]out
	if err := Run(size, nil, func(c *Comm) error {
		o, err := exchange(c)
		localOut[c.Rank()] = o
		return err
	}); err != nil {
		t.Fatal(err)
	}
	addr := freeAddr(t)
	if err := runTCPWorld(t, size, basicTCPConfig(addr, size), func(c *Comm) error {
		o, err := exchange(c)
		tcpOut[c.Rank()] = o
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < size; r++ {
		if localOut[r].red != tcpOut[r].red {
			t.Errorf("rank %d: allreduce bits differ: local %x tcp %x", r, localOut[r].red, tcpOut[r].red)
		}
		for i := range localOut[r].gath {
			if localOut[r].gath[i] != tcpOut[r].gath[i] {
				t.Errorf("rank %d: allgather[%d] bits differ", r, i)
			}
		}
	}
}

// TestTCPCoalescingOnWire pins that chunked Isends ride one wire
// batch over real sockets, counted by omp4go_mpi_coalesced_total.
func TestTCPCoalescingOnWire(t *testing.T) {
	addr := freeAddr(t)
	reg := metrics.New()
	mk := func(rank int) TCPConfig {
		cfg := basicTCPConfig(addr, 2)(rank)
		cfg.FlushWindow = time.Hour // only explicit flushes
		if rank == 0 {
			cfg.Metrics = reg
		}
		return cfg
	}
	err := runTCPWorld(t, 2, mk, func(c *Comm) error {
		if c.Rank() == 0 {
			for k := 0; k < 6; k++ {
				if _, err := c.Isend(1, k, []float64{float64(k)}); err != nil {
					return err
				}
			}
			if err := c.Flush(1); err != nil {
				return err
			}
			_, err := c.Recv(1, 100) // ack keeps rank 0 alive until delivery
			return err
		}
		for k := 0; k < 6; k++ {
			d, err := c.Recv(0, k)
			if err != nil {
				return err
			}
			if d[0] != float64(k) {
				t.Errorf("chunk %d: got %v", k, d)
			}
		}
		return c.Send(0, 100, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[metrics.MPICoalesced]; got != 5 {
		t.Errorf("coalesced = %d, want 5 riders for a 6-message flush", got)
	}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"omp4go_mpi_msgs_total", "omp4go_mpi_bytes_total",
		"omp4go_mpi_coalesced_total", "omp4go_mpi_send_wait_seconds", "omp4go_mpi_recv_wait_seconds"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("prometheus exposition missing %s", name)
		}
	}
}

// TestTCPDialFailureErrors pins the fault path: a rank whose peers
// never show up gets an error within the dial timeout, not a hang.
func TestTCPDialFailureErrors(t *testing.T) {
	addr := freeAddr(t) // nobody listens here
	start := time.Now()
	_, err := ConnectTCP(TCPConfig{Rank: 1, Size: 2, Addr: addr, DialTimeout: 700 * time.Millisecond})
	if err == nil {
		t.Fatal("connect to absent rank 0 succeeded")
	}
	if !strings.Contains(err.Error(), "rendezvous") {
		t.Errorf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("dial failure took %v", elapsed)
	}
	// Rank 0 waiting for ranks that never dial also times out.
	_, err = ConnectTCP(TCPConfig{Rank: 0, Size: 2, Addr: freeAddr(t), DialTimeout: 700 * time.Millisecond})
	if err == nil {
		t.Fatal("rendezvous with absent peers succeeded")
	}
}

// TestTCPPeerExitMidRunErrors spawns a real child process that joins
// the world and immediately exits; the surviving rank's receives and
// collectives must degrade to errors, not deadlocks.
func TestTCPPeerExitMidRunErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	addr := freeAddr(t)
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"OMP4GO_MPI_TEST_HELPER=connect-exit",
		EnvMPIAddr+"="+addr,
		EnvMPIRank+"=1",
		EnvMPISize+"=2",
	)
	var childOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &childOut, &childOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait()
	c, err := ConnectTCP(TCPConfig{Rank: 0, Size: 2, Addr: addr, DialTimeout: 15 * time.Second})
	if err != nil {
		t.Fatalf("connect: %v (child: %s)", err, childOut.String())
	}
	defer c.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Recv(1, 0)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("recv from exited peer succeeded")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("recv from exited peer hung")
	}
	if _, err := c.Allreduce(1, OpSum); err == nil {
		t.Fatal("collective with exited peer succeeded")
	}
}

func TestEnvTCPConfig(t *testing.T) {
	env := func(m map[string]string) func(string) string {
		return func(k string) string { return m[k] }
	}
	if _, ok, err := EnvTCPConfig(env(nil)); ok || err != nil {
		t.Fatalf("unset env: ok=%v err=%v", ok, err)
	}
	cfg, ok, err := EnvTCPConfig(env(map[string]string{
		EnvMPIAddr: "127.0.0.1:7311", EnvMPIRank: "2", EnvMPISize: "4", EnvMPICoalesce: "1024",
	}))
	if !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if cfg.Rank != 2 || cfg.Size != 4 || cfg.Addr != "127.0.0.1:7311" || cfg.CoalesceBytes != 1024 {
		t.Fatalf("cfg = %+v", cfg)
	}
	for name, m := range map[string]map[string]string{
		"missing rank":  {EnvMPIAddr: "a:1", EnvMPISize: "2"},
		"bad size":      {EnvMPIAddr: "a:1", EnvMPIRank: "0", EnvMPISize: "two"},
		"bad coalesce":  {EnvMPIAddr: "a:1", EnvMPIRank: "0", EnvMPISize: "2", EnvMPICoalesce: "-5"},
		"rank no digit": {EnvMPIAddr: "a:1", EnvMPIRank: "x", EnvMPISize: "2"},
	} {
		if _, _, err := EnvTCPConfig(env(m)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if _, err := ConnectTCP(TCPConfig{Rank: 5, Size: 2, Addr: "x"}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := ConnectTCP(TCPConfig{Rank: 0, Size: 0, Addr: "x"}); err == nil {
		t.Error("zero world accepted")
	}
}

// TestTCPSizeOneNeedsNoNetwork pins that a 1-rank TCP world works
// offline — collectives and self-sends with no sockets at all.
func TestTCPSizeOneNeedsNoNetwork(t *testing.T) {
	c, err := ConnectTCP(TCPConfig{Rank: 0, Size: 1, Addr: "255.255.255.255:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v, err := c.Allreduce(4.5, OpSum); err != nil || v != 4.5 {
		t.Fatalf("allreduce = %v, %v", v, err)
	}
	if err := c.Send(0, 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if d, err := c.Recv(0, 0); err != nil || d[0] != 1 {
		t.Fatalf("self recv = %v, %v", d, err)
	}
}
