package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"vprofile/internal/control/controlapi"
	"vprofile/internal/control/controlclient"
	"vprofile/internal/control/controlserver"
	"vprofile/internal/engine"
	"vprofile/internal/vehicle"
)

// liveRate is the offered load per bus, in frames per second: about
// half of what a 250 kb/s J1939 bus carries.
const liveRate = 1000

// maxLateMs is the generator lateness (p99) beyond which a live run
// measures the scheduler rather than the program, and fails. Transient
// wake-up delays on a busy two-core host reach about 10 ms at p99; a
// generator that cannot keep the schedule goes far past this.
const maxLateMs = 20.0

// frameKey identifies a frame in the event stream.
type frameKey struct {
	t  float64
	id uint32
}

// liveBus is one bus of the live workload.
type liveBus struct {
	*capture
	byKey map[frameKey][]int
}

// runLive is the live-daemon workload: an in-process
// controlserver.Daemon with two unix-socket buses (drift on,
// quarantine off, nproc workers in total) fed on a fixed schedule by a
// separate generator process, alerts read through the control API's
// events long-poll the way `vprofile tail` reads them.
func runLive(dir string, o runOptions, m *measurement) error {
	v := vehicle.NewVehicleB()
	n := int(liveRate * o.seconds)
	send := n
	if o.trace {
		send = n / 2
	}
	var train *capture
	buses := make([]*liveBus, 2)
	gens := []func() error{func() (err error) {
		train, err = cleanCapture(filepath.Join(dir, "train.vptr"), v, scaled(4000, o.size, 1000), o.seed*7+1)
		return err
	}}
	for i := range buses {
		gens = append(gens, func() error {
			name := fmt.Sprintf("bus-%c", 'a'+i)
			c, err := scenarioCapture(filepath.Join(dir, name+".vptr"), name, v, "hijack", n, o.seed*7+2+int64(i))
			if err != nil {
				return err
			}
			buses[i] = &liveBus{capture: c, byKey: map[frameKey][]int{}}
			for j := range c.ends {
				k := frameKey{c.times[j], frameIDAt(c, j)}
				buses[i].byKey[k] = append(buses[i].byKey[k], j)
			}
			return c.writeIndex()
		})
	}
	if err := parallel(gens...); err != nil {
		return err
	}
	modelPath := filepath.Join(dir, "model.vpm")
	cfg := trainConfig(marginB)
	if _, err := trainModel(train.path, modelPath, cfg); err != nil {
		return err
	}
	refModel, err := engine.LoadModelFile(modelPath)
	if err != nil {
		return err
	}
	if err := parallel(
		func() error { return buses[0].reference(refModel, false, send) },
		func() error { return buses[1].reference(refModel, false, send) },
	); err != nil {
		return err
	}

	workers := max(1, runtime.NumCPU()/len(buses))
	type daemon struct {
		d   *controlserver.Daemon
		srv *controlserver.Server
	}
	var ds []daemon
	defer func() {
		for _, d := range ds {
			d.d.Drain(5 * time.Second)
			_ = d.srv.Close()
		}
	}()
	var store *engine.ModelStore
	st, err := timedSetup(train.path, modelPath, cfg, func(s *engine.ModelStore) error {
		store = s
		d, err := controlserver.New(controlserver.Config{})
		if err != nil {
			return err
		}
		srv, err := controlserver.Serve("127.0.0.1:0", d)
		if err != nil {
			d.Drain(time.Second)
			return err
		}
		ds = append(ds, daemon{d, srv})
		for i, b := range buses {
			_, err := d.Attach(controlapi.BusSpec{
				Bus: b.bus, Listen: "unix://" + filepath.Join(dir, fmt.Sprintf("d%d-%d.sock", len(ds), i)),
				Model: modelPath, Workers: workers, Drift: true,
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	st.report(m, true)
	lv := &liveRun{dir: dir, buses: buses, send: send, m: m}
	last := ds[len(ds)-1]
	if !o.trace {
		p, err := lv.daemonPhase(last.d, last.srv.Addr(), 1, false)
		if err != nil {
			return err
		}
		p.report(m)
		return nil
	}
	plain, err := lv.daemonPhase(last.d, last.srv.Addr(), 1, false)
	if err != nil {
		return err
	}
	traced, err := lv.daemonPhase(last.d, last.srv.Addr(), 2, true)
	if err != nil {
		return err
	}
	plain.report(m)
	base := m.metrics["cpu_ms_per_kframe"].Value
	traced.report(m)
	m.set("bench.trace_overhead_pct", 100*(m.metrics["cpu_ms_per_kframe"].Value/base-1))
	m.set("control.backlog_frames_max", float64(traced.backlogMax))
	vp50, vp99, util, err := lv.verdictPhase(store, workers)
	if err != nil {
		return err
	}
	m.set("engine.verdict_latency_p50_ms", vp50)
	m.set("engine.verdict_latency_p99_ms", vp99)
	m.set("control.event_delivery_ms_p50", quantile(traced.lat, 0.5)-vp50)
	m.set("pipeline.worker_util", util)
	m.set("obs.flight_bundles", 0)
	m.set("obs.event_us_per_event", 0)
	return layerPass(m, layerPlan{caps: []*capture{buses[0].capture, buses[1].capture}, model: refModel,
		scratch: true, detect: true, tally: true, drift: true, dir: dir})
}

// frameIDAt decodes record j's frame id from the encoded capture
// (u32 ECU index, f64 time, u32 frame id).
func frameIDAt(c *capture, j int) uint32 {
	b := c.span(j, j+1)
	return binary.LittleEndian.Uint32(b[12:16])
}

// liveRun holds the state shared by the live phases.
type liveRun struct {
	dir   string
	buses []*liveBus
	send  int
	m     *measurement
}

// livePhase is one daemon phase's outcome.
type livePhase struct {
	frames     int
	wrong      int
	wall       time.Duration
	cpu        time.Duration
	h0, h1     heap
	lat        []float64
	backlogMax int
	late       float64
	lateMax    float64
	mismatch   string
}

func (p livePhase) report(m *measurement) {
	f := float64(p.frames)
	m.set("frames_per_s", f/p.wall.Seconds())
	m.set("cpu_ms_per_kframe", p.cpu.Seconds()*1e6/f)
	m.set("allocs_per_frame", float64(p.h1.mallocs-p.h0.mallocs)/f)
	m.set("bytes_per_frame", float64(p.h1.bytes-p.h0.bytes)/f)
	m.set("alert_latency_p50_ms", quantile(p.lat, 0.5))
	m.set("alert_latency_p99_ms", quantile(p.lat, 0.99))
	m.set("correct_frac", float64(p.frames-p.wrong)/f)
	m.set("gen.late_ms_p99", max(m.metrics["gen.late_ms_p99"].Value, p.late))
	m.info.Extra["gen_late_ms_p99"] = m.metrics["gen.late_ms_p99"].Value
	m.info.Extra["gen_late_ms_max"] = max(m.info.Extra["gen_late_ms_max"], p.lateMax)
	m.attempted += int64(p.frames)
	m.failed += int64(p.wrong)
	m.info.Samples["alert_latency"] += len(p.lat)
	if p.mismatch != "" {
		m.fail("%s", p.mismatch)
	}
}

// schedule fixes when each frame is due: frame i of every bus at
// start + i/liveRate.
type schedule struct {
	wall time.Time // for the generator process
	mono int64     // the same instant on this process's clock
}

// scheduleLead is the time between fixing the schedule and frame 0,
// long enough for the generator to read it and start its senders.
const scheduleLead = 50 * time.Millisecond

func newSchedule() schedule {
	return schedule{wall: time.Now().Add(scheduleLead), mono: now() + int64(scheduleLead)}
}

func (s schedule) due(i int) int64 { return s.mono + int64(i)*int64(time.Second)/liveRate }

// generator is a running generator process.
type generator struct {
	cmd *exec.Cmd
	out *bufio.Reader
}

// startGenerator runs this binary in its generator role against the
// given sockets, one connection per bus. Once the generator has
// connected and sent every capture header it reports ready; only then
// is the schedule fixed and handed to it, so process start-up never
// makes frames late.
func (lv *liveRun) startGenerator(socks []string) (*generator, schedule, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, schedule{}, err
	}
	args := []string{"-n", strconv.Itoa(lv.send)}
	for i, b := range lv.buses {
		args = append(args, "-feed", socks[i]+"="+b.path)
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), genEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, schedule{}, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, schedule{}, err
	}
	if err := cmd.Start(); err != nil {
		return nil, schedule{}, err
	}
	g := &generator{cmd: cmd, out: bufio.NewReader(out)}
	if _, err := g.out.ReadString('\n'); err != nil {
		in.Close()
		_ = cmd.Wait()
		return nil, schedule{}, fmt.Errorf("generator did not start: %w", err)
	}
	s := newSchedule()
	_, err = fmt.Fprintln(in, s.wall.UnixNano())
	if cerr := in.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = cmd.Wait()
		return nil, schedule{}, err
	}
	return g, s, nil
}

// wait collects the generator's report.
func (g *generator) wait() (genReport, error) {
	var rep genReport
	line, rerr := g.out.ReadBytes('\n')
	if err := g.cmd.Wait(); err != nil {
		return rep, fmt.Errorf("generator: %w", err)
	}
	if rerr != nil {
		return rep, fmt.Errorf("generator report: %w", rerr)
	}
	return rep, json.Unmarshal(line, &rep)
}

// daemonPhase sends the first lv.send frames of every bus to the
// daemon's ingest sockets and follows the alarms through the events
// long-poll. session is the bus session number this phase feeds.
func (lv *liveRun) daemonPhase(d *controlserver.Daemon, ctl string, session int, traced bool) (livePhase, error) {
	var p livePhase
	client := controlclient.New(ctl)
	ctx, cancel := context.WithCancel(context.Background())
	var sampler sync.WaitGroup
	defer func() {
		cancel()
		sampler.Wait()
	}()
	// A cursor past the end reads back the hub's next sequence number,
	// so this phase follows only its own events.
	first, err := client.Events(ctx, math.MaxUint64, 1, 0)
	if err != nil {
		return p, err
	}
	socks := make([]string, len(lv.buses))
	for i, b := range lv.buses {
		st, err := d.BusStatus(b.bus)
		if err != nil {
			return p, err
		}
		socks[i] = strings.TrimPrefix(st.Ingest, "unix://")
	}
	busIndex := map[string]int{}
	observed := make([][][]string, len(lv.buses))
	alarmed := make([][]bool, len(lv.buses))
	for i, b := range lv.buses {
		busIndex[b.bus] = i
		observed[i] = make([][]string, lv.send)
		alarmed[i] = make([]bool, lv.send)
	}
	want := 0
	for _, b := range lv.buses {
		for _, k := range b.kinds[:lv.send] {
			want += len(k)
		}
	}

	runtime.GC()
	p.h0 = heapNow()
	c0 := cpuTime()
	gen, s, err := lv.startGenerator(socks)
	if err != nil {
		return p, err
	}
	var mu sync.Mutex
	got := 0
	readerDone := make(chan error, 1)
	go func() {
		after := first.Next
		for ctx.Err() == nil {
			resp, err := client.Events(ctx, after, 1000, 200*time.Millisecond)
			if err != nil {
				if ctx.Err() != nil {
					break
				}
				readerDone <- err
				return
			}
			t := now()
			mu.Lock()
			for _, ev := range resp.Events {
				b, ok := busIndex[ev.Bus]
				if !ok || ev.FrameID == nil {
					continue
				}
				for _, i := range lv.buses[b].byKey[frameKey{ev.TimeSec, *ev.FrameID}] {
					if i >= lv.send {
						continue
					}
					observed[b][i] = append(observed[b][i], ev.Kind)
					got++
					if alarmKinds[ev.Kind] && !alarmed[b][i] {
						alarmed[b][i] = true
						p.lat = append(p.lat, ms(t-s.due(i)))
					}
					break
				}
			}
			if resp.Dropped > 0 {
				p.mismatch = fmt.Sprintf("event subscription dropped %d events", resp.Dropped)
			}
			mu.Unlock()
			after = resp.Next
		}
		readerDone <- nil
	}()

	stopSampling := make(chan struct{})
	if traced {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampling:
					return
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				due := min(lv.send, int((now()-s.mono)*liveRate/int64(time.Second))+1)
				if due <= 0 {
					continue
				}
				for _, b := range lv.buses {
					st, err := d.BusStatus(b.bus)
					if err != nil || st.Sessions < session || st.Tally == nil {
						continue
					}
					p.backlogMax = max(p.backlogMax, due-st.Tally.Frames)
				}
			}
		}()
	}
	rep, err := gen.wait()
	if err != nil {
		return p, err
	}
	p.late, p.lateMax = rep.LateP99, rep.LateMax
	// Every bus has drained once its session count reaches this
	// phase's session.
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, b := range lv.buses {
			st, err := d.BusStatus(b.bus)
			if err != nil {
				return p, err
			}
			done = done && st.SessionsDone >= session
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return p, fmt.Errorf("daemon did not drain the feeds within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	tDone := now()
	p.cpu = cpuTime() - c0
	p.h1 = heapNow()
	close(stopSampling)
	sampler.Wait()
	p.wall = time.Duration(tDone - s.mono)

	// Wait for the alarm stream to catch up with the verdicts.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		mu.Lock()
		n := got
		mu.Unlock()
		if n >= want {
			break
		}
	}
	cancel()
	if err := <-readerDone; err != nil {
		return p, err
	}

	for i, b := range lv.buses {
		st, err := d.BusStatus(b.bus)
		if err != nil {
			return p, err
		}
		if st.SessionsAborted > 0 {
			p.mismatch = fmt.Sprintf("bus %s: session aborted: %s", b.bus, st.LastError)
		}
		tv := viewOfSnapshot(st.Tally)
		if !reflect.DeepEqual(tv, b.tallies[lv.send]) && p.mismatch == "" {
			p.mismatch = fmt.Sprintf("bus %s: drained tally %+v differs from the reference %+v", b.bus, tv, b.tallies[lv.send])
		}
		p.frames += lv.send
		right := 0
		for j := 0; j < lv.send; j++ {
			if sameKinds(observed[i][j], b.kinds[j]) {
				right++
			}
		}
		// A frame the daemon never scored cannot be told apart from a
		// quiet one in the event stream; count the shortfall as wrong.
		right -= lv.send - tv.Frames
		p.wrong += lv.send - max(0, right)
	}
	if p.late > maxLateMs && p.mismatch == "" {
		p.mismatch = fmt.Sprintf("generator fell behind: p99 lateness %.2f ms > %.0f ms", p.late, maxLateMs)
	}
	return p, nil
}

// sameKinds compares two event-kind lists as multisets.
func sameKinds(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[string]int{}
	for _, k := range a {
		count[k]++
	}
	for _, k := range b {
		count[k]--
		if count[k] < 0 {
			return false
		}
	}
	return true
}

// verdictPhase feeds the same schedule into engine.Session over
// engine.StreamSource — the daemon's per-bus session without the
// control plane — and times each frame from its due time to the sink.
func (lv *liveRun) verdictPhase(store *engine.ModelStore, workers int) (p50, p99, util float64, err error) {
	socks := make([]string, len(lv.buses))
	lns := make([]net.Listener, len(lv.buses))
	for i := range lv.buses {
		socks[i] = filepath.Join(lv.dir, fmt.Sprintf("v-%d.sock", i))
		if lns[i], err = net.Listen("unix", socks[i]); err != nil {
			return 0, 0, 0, err
		}
		defer lns[i].Close()
	}
	lat := make([][]float64, len(lv.buses))
	utils := make([]float64, len(lv.buses))
	errs := make(chan error, len(lv.buses))
	// The sessions attach as soon as the generator connects, but the
	// schedule is fixed only once it is ready.
	scheduled := make(chan schedule)
	for i, b := range lv.buses {
		go func() {
			errs <- func() error {
				conn, err := lns[i].Accept()
				if err != nil {
					return err
				}
				src, err := engine.NewStreamSource(b.bus, conn)
				if err != nil {
					return err
				}
				sess := engine.NewSession("", engine.WithName(b.bus), engine.WithSource(src),
					engine.WithStore(store), engine.WithWorkers(workers), engine.WithDrift(true))
				s, ok := <-scheduled
				if !ok {
					src.Close()
					return errors.New("generator did not start")
				}
				wrong := 0
				sum, err := sess.Run(func(r engine.Result) error {
					lat[i] = append(lat[i], ms(now()-s.due(r.Index)))
					if verdictOf(r.Verdict) != b.ref[r.Index] {
						wrong++
					}
					return nil
				})
				utils[i] = sum.Stats.Utilization()
				if err == nil && (wrong > 0 || len(lat[i]) != lv.send) {
					err = fmt.Errorf("bus %s: %d of %d streamed verdicts differ from the reference", b.bus, wrong+lv.send-len(lat[i]), lv.send)
				}
				return err
			}()
		}()
	}
	gen, s, err := lv.startGenerator(socks)
	if err != nil {
		close(scheduled)
		for _, ln := range lns {
			ln.Close()
		}
		for range lv.buses {
			<-errs
		}
		return 0, 0, 0, err
	}
	for range lv.buses {
		scheduled <- s
	}
	rep, gerr := gen.wait()
	for range lv.buses {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err == nil {
		err = gerr
	}
	if err != nil {
		return 0, 0, 0, err
	}
	lv.m.set("gen.late_ms_p99", max(lv.m.metrics["gen.late_ms_p99"].Value, rep.LateP99))
	var merged []float64
	for _, l := range lat {
		merged = append(merged, l...)
	}
	lv.m.info.Samples["verdict_latency"] = len(merged)
	return quantile(merged, 0.5), quantile(merged, 0.99), median(utils), nil
}

// genEnv, set in the environment, makes this binary run as the
// live-daemon traffic generator instead of the benchmark.
const genEnv = "PERFBENCH_GENERATOR"

// genFlags configures the generator role.
type genFlags struct {
	n     int
	feeds []string
}

// genMain runs the generator role with the given arguments and exits.
func genMain(args []string) {
	var g genFlags
	fs := flag.NewFlagSet("generator", flag.ExitOnError)
	fs.IntVar(&g.n, "n", 0, "frames to send per feed")
	fs.Func("feed", "socket=capture pair (repeatable)", func(s string) error {
		g.feeds = append(g.feeds, s)
		return nil
	})
	_ = fs.Parse(args)
	if err := runGenerator(g); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench generator:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// genReport is the generator's one-line report.
type genReport struct {
	Sent    int     `json:"sent"`
	LateP99 float64 `json:"late_ms_p99"`
	LateMax float64 `json:"late_ms_max"`
}

// feed is one generator connection with its pre-encoded records.
type feed struct {
	conn net.Conn
	data []byte
	offs []int // offs[i] is where record i starts; offs[n] ends the last
	n    int
}

// openFeed loads a capture and its record index, connects to the
// socket and sends the capture header.
func openFeed(spec string, limit int) (*feed, error) {
	sock, path, ok := strings.Cut(spec, "=")
	if !ok {
		return nil, fmt.Errorf("feed %q is not socket=capture", spec)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	idx, err := os.ReadFile(path + ".idx")
	if err != nil {
		return nil, err
	}
	offs := make([]int, len(idx)/8)
	for i := range offs {
		offs[i] = int(binary.LittleEndian.Uint64(idx[8*i:]))
	}
	if len(offs) == 0 {
		return nil, fmt.Errorf("%s.idx is empty", path)
	}
	conn, err := net.Dial("unix", sock)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(data[:offs[0]]); err != nil {
		conn.Close()
		return nil, err
	}
	return &feed{conn: conn, data: data, offs: offs, n: min(limit, len(offs)-1)}, nil
}

// send writes the feed's records on the schedule starting at t0 and
// returns each record's lateness in ms. Records already due go out in
// one write.
func (f *feed) send(t0 time.Time) ([]float64, error) {
	period := time.Second / liveRate
	late := make([]float64, 0, f.n)
	for i := 0; i < f.n; {
		if d := time.Until(t0.Add(time.Duration(i) * period)); d > 0 {
			time.Sleep(d)
		}
		at := time.Now()
		j := i + 1
		for j < f.n && !t0.Add(time.Duration(j)*period).After(at) {
			j++
		}
		for k := i; k < j; k++ {
			late = append(late, float64(at.Sub(t0.Add(time.Duration(k)*period)))/1e6)
		}
		if _, err := f.conn.Write(f.data[f.offs[i]:f.offs[j]]); err != nil {
			return late, err
		}
		i = j
	}
	return late, nil
}

// runGenerator is the open-loop traffic source: one process, one
// connection per bus, each sending its records on the fixed schedule
// whether or not the daemon keeps up. It connects, reports ready on
// stdout, reads the schedule's start (Unix ns) from stdin, sends, and
// reports its lateness.
func runGenerator(g genFlags) error {
	var feeds []*feed
	defer func() {
		for _, f := range feeds {
			f.conn.Close()
		}
	}()
	for _, spec := range g.feeds {
		f, err := openFeed(spec, g.n)
		if err != nil {
			return err
		}
		feeds = append(feeds, f)
	}
	fmt.Println("ready")
	var start int64
	if _, err := fmt.Fscanln(os.Stdin, &start); err != nil {
		return fmt.Errorf("reading the schedule start: %w", err)
	}
	t0 := time.Unix(0, start)
	lates := make([][]float64, len(feeds))
	errs := make([]error, len(feeds))
	var wg sync.WaitGroup
	for i, f := range feeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lates[i], errs[i] = f.send(t0)
			// Closing ends the stream: the session drains and finishes.
			if err := f.conn.Close(); err != nil && errs[i] == nil {
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	var late []float64
	for i := range feeds {
		if errs[i] != nil {
			return errs[i]
		}
		late = append(late, lates[i]...)
	}
	return json.NewEncoder(os.Stdout).Encode(genReport{
		Sent: len(late), LateP99: quantile(late, 0.99), LateMax: quantile(late, 1),
	})
}
