package dist

import (
	"sync"
	"testing"

	"etalstm/internal/model"
	"etalstm/internal/obs"
	"etalstm/internal/workload"
)

// BenchmarkTCPStep times one dense gradient-sync step over loopback
// TCP at the train-sync geometry (IMDB with hidden and input sizes ÷8:
// H=256, 3 layers, about 2.76M parameters): a coordinator and two
// workers, each worker shipping its contribution and receiving the
// merged set. It reports ms/step and, through SetBytes, the MB/s of
// gradient payload the coordinator moves (both workers, both
// directions).
//
//	go test -run '^$' -bench TCPStep ./internal/dist
func BenchmarkTCPStep(b *testing.B) {
	bench, err := workload.ByName("IMDB")
	if err != nil {
		b.Fatal(err)
	}
	cfg := bench.Scaled(8, 8, 4).Cfg
	const workers = 2
	c, err := StartCoordinator("127.0.0.1:0", cfg, CoordinatorOptions{ExpectWorkers: workers, Metrics: obs.NewDist(obs.NewRegistry())})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	ws := make([]*Worker, workers)
	grads := make([]*model.Gradients, workers)
	errs := make(chan error, workers)
	for i := range ws {
		go func(i int) {
			w, err := Dial(c.Addr().String(), cfg, WorkerOptions{Metrics: obs.NewDist(obs.NewRegistry())})
			ws[i] = w
			errs <- err
		}(i)
		if grads[i], err = model.NewGradientsFor(cfg); err != nil {
			b.Fatal(err)
		}
		fillGradients(grads[i], uint64(i+1))
	}
	for range ws {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	run := func(steps int) {
		var wg sync.WaitGroup
		for i, w := range ws {
			wg.Add(1)
			go func(w *Worker, g *model.Gradients) {
				defer wg.Done()
				for s := 0; s < steps; s++ {
					if _, _, err := w.Reduce([]*model.Gradients{g}); err != nil {
						b.Error(err)
						return
					}
				}
			}(w, grads[i])
		}
		wg.Wait()
	}
	run(2) // warm: connections, buffers
	b.SetBytes(2 * workers * denseBytes(tensorsOf(grads[0])))
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/step")
	for _, w := range ws {
		w.Close()
	}
}
