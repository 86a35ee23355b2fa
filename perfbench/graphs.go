package main

import (
	"net"
	"sync"

	icspm "cspm/internal/cspm"
	"cspm/internal/dataset"
	"cspm/internal/graph"
	"cspm/internal/shardrpc"
)

// usflightGraph is the connected hub-and-spoke pass graph: skewed sets, so
// the galloping intersection kernels do the work.
func usflightGraph(seed int64) *graph.Graph { return dataset.USFlight(seed) }

// islandsGraph is the BenchIslands archipelago (12 islands, balanced sets,
// ≈32.6k patterns). It does not depend on the seed: the islands' mining
// work varies 1.8× with their wiring (365k to 657k gain evaluations over
// six edge seeds), which would swamp every timing's run-to-run spread. The
// seed still picks the USFlight graph, the queries, arrivals and edits.
func islandsGraph() *graph.Graph { return dataset.Islands(dataset.BenchIslands()) }

// rpcPool is a shard worker pool on loopback TCP listeners, one worker per
// listener, dialled as one transport.
type rpcPool struct {
	servers []*shardrpc.Server
	client  *shardrpc.Client
	wg      sync.WaitGroup
}

func startPool(workers int) (*rpcPool, error) {
	p := &rpcPool{}
	var addrs []string
	for i := 0; i < workers; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.close()
			return nil, err
		}
		srv := shardrpc.NewServer(icspm.ExecuteShardJob, 1)
		p.servers = append(p.servers, srv)
		addrs = append(addrs, l.Addr().String())
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			_ = srv.Serve(l) // returns nil once closed
		}()
	}
	c, err := shardrpc.Dial(addrs)
	if err != nil {
		p.close()
		return nil, err
	}
	p.client = c
	return p, nil
}

// close stops the client and every worker and waits for them to exit.
func (p *rpcPool) close() {
	if p.client != nil {
		p.client.Close()
	}
	for _, s := range p.servers {
		s.Close()
	}
	p.wg.Wait()
}
