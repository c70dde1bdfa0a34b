package perfsim

import (
	"repro/internal/mem"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// FileCopy models `dd` copying a file of the given size from disk: the
// disk controller DMAs each line in (through DDIO when enabled), the
// kernel reads it and writes it to the destination page-cache page. Fig 15
// uses 100 MB; tests scale down.
func FileCopy(env *Env, bytes int) Metrics {
	srcPages := bytes / mem.PageSize
	src, _ := env.Alloc.AllocPages(srcPages)
	dst, _ := env.Alloc.AllocPages(srcPages)
	const diskBytesPerSec = 500 << 20
	linePeriod := sim.CyclesPerSecond(float64(diskBytesPerSec) / 64)
	env.Cache.ResetStats()
	start := env.Clock.Now()
	var chunks uint64
	for p := 0; p < srcPages; p++ {
		for b := 0; b < mem.PageSize/64; b++ {
			// Disk DMA write of one line, then the copy loop reads it and
			// stores to the destination.
			env.Cache.IOWrite(uint64(src[p]) + uint64(b*64))
			env.Clock.Advance(linePeriod)
			_, lat := env.Cache.Read(uint64(src[p]) + uint64(b*64))
			_, lat2 := env.Cache.Write(uint64(dst[p]) + uint64(b*64))
			env.Clock.Advance(lat + lat2)
		}
		chunks++
	}
	return Metrics{
		Workload: "File Copy",
		Cache:    env.Cache.Stats(),
		Duration: env.Clock.Now() - start,
		Requests: chunks,
	}
}

// TCPRecv models the paper's constant receiver of TCP packets with 8-byte
// payloads: minimum-size frames arrive at a high rate, take the driver's
// copy path, and the application reads each payload from its socket.
func TCPRecv(env *Env, packets int) Metrics {
	wire := netmodel.NewWire(netmodel.GigabitRate)
	src := netmodel.NewConstantSource(wire, 64, 400_000, env.Clock.Now(), packets)
	appPages, _ := env.Alloc.AllocPages(8)
	env.Cache.ResetStats()
	start := env.Clock.Now()
	var count uint64
	for {
		f, ok := src.Next()
		if !ok {
			break
		}
		if f.Arrival > env.Clock.Now() {
			env.Clock.AdvanceTo(f.Arrival)
		}
		f.Known = true
		env.NIC.Receive(f)
		env.NIC.ProcessDriver(env.Clock.Now() + env.NIC.Config().DriverLatency)
		env.Clock.Advance(env.overhead)
		// Application recv(): copy the payload out of the skb.
		app := uint64(appPages[int(count)%len(appPages)]) + uint64(count%64)*64
		_, lat := env.Cache.Read(app)
		env.Clock.Advance(lat + 500) // syscall + copy overhead
		count++
	}
	return Metrics{
		Workload: "TCP Recv",
		Cache:    env.Cache.Stats(),
		Duration: env.Clock.Now() - start,
		Requests: count,
	}
}

// NginxConfig shapes the web-server model.
type NginxConfig struct {
	// Requests is the number of HTTP requests to serve.
	Requests int
	// TargetRate is the wrk2 open-loop arrival rate (req/s); 0 means
	// closed-loop saturation (Fig 14 measures saturated throughput,
	// Fig 16 uses 140k req/s).
	TargetRate float64
	// Threads is the worker count (wrk2 experiment: 8).
	Threads int
	// CorpusBytes is the served content working set; ~16 MB makes the
	// Fig 14 LLC-size sweep bite.
	CorpusBytes int
	// LinesPerRequest is the content+metadata touched per request.
	LinesPerRequest int
	// ComputeCycles is the non-memory CPU work per request.
	ComputeCycles uint64
}

// DefaultNginxConfig returns the Fig 14/16 workload shape.
func DefaultNginxConfig() NginxConfig {
	return NginxConfig{
		Requests:        30_000,
		TargetRate:      0,
		Threads:         8,
		CorpusBytes:     16 << 20,
		LinesPerRequest: 220,
		// Sized so that 8 workers saturate just above the wrk2 target of
		// 140k req/s, the regime in which Fig 16's tail latencies live.
		ComputeCycles: 160_000,
	}
}

// Nginx models the web server: each request arrives as a small packet,
// traverses the driver, touches server content (a hot header set plus a
// corpus working set), and is answered. Request latency combines queueing
// (open-loop arrivals onto Threads workers) and the measured service time,
// which includes the memory stalls the cache model charges and the
// driver-path overhead of the active defense.
func Nginx(env *Env, cfg NginxConfig) Metrics {
	corpusPages, _ := env.Alloc.AllocPages(cfg.CorpusBytes / mem.PageSize)
	hotPages, _ := env.Alloc.AllocPages(64) // nginx code + config + TLS state
	wire := netmodel.NewWire(netmodel.GigabitRate)

	var arrivalPeriod uint64
	if cfg.TargetRate > 0 {
		arrivalPeriod = sim.CyclesPerSecond(cfg.TargetRate)
	}
	// Worker availability, in absolute cycles.
	workers := make([]uint64, cfg.Threads)
	env.Cache.ResetStats()
	start := env.Clock.Now()
	latencies := make([]uint64, 0, cfg.Requests)
	var arrival uint64 = env.Clock.Now()

	for r := 0; r < cfg.Requests; r++ {
		if arrivalPeriod > 0 {
			arrival += uint64(env.RNG.Jitter(float64(arrivalPeriod), 0.5))
		} else {
			arrival = env.Clock.Now()
		}
		// Request packet through the NIC (RX path).
		f := wire.Send(128, arrival, true)
		if f.Arrival > env.Clock.Now() {
			env.Clock.AdvanceTo(f.Arrival)
		}
		env.NIC.Receive(f)
		env.NIC.ProcessDriver(env.Clock.Now() + env.NIC.Config().DriverLatency)

		// Service: headers from the hot set, content from the corpus.
		var stall uint64
		for i := 0; i < 24; i++ {
			p := hotPages[env.RNG.Intn(len(hotPages))]
			_, lat := env.Cache.Read(uint64(p) + uint64(env.RNG.Intn(64))*64)
			stall += lat
		}
		filePage := env.RNG.Intn(len(corpusPages))
		for i := 0; i < cfg.LinesPerRequest; i++ {
			p := corpusPages[(filePage+i/64)%len(corpusPages)]
			_, lat := env.Cache.Read(uint64(p) + uint64(i%64)*64)
			stall += lat
		}
		service := cfg.ComputeCycles + stall + env.overhead
		env.Clock.Advance(service / 4) // workers overlap; wall clock moves slower

		// Queueing: earliest-free worker takes the request.
		w := 0
		for i := 1; i < len(workers); i++ {
			if workers[i] < workers[w] {
				w = i
			}
		}
		startSvc := workers[w]
		if f.Arrival > startSvc {
			startSvc = f.Arrival
		}
		workers[w] = startSvc + service
		latencies = append(latencies, workers[w]-f.Arrival)
	}
	// Completion time: last worker to finish.
	end := env.Clock.Now()
	for _, w := range workers {
		if w > end {
			end = w
		}
	}
	if end > env.Clock.Now() {
		env.Clock.AdvanceTo(end)
	}
	return Metrics{
		Workload:  "Nginx",
		Cache:     env.Cache.Stats(),
		Duration:  end - start,
		Requests:  uint64(cfg.Requests),
		Latencies: latencies,
	}
}
