package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"authdb/internal/core"
)

// BenchmarkDurableInsert measures durable inserts from one writer and
// from eight concurrent ones. A single writer pays one fsync per insert;
// concurrent writers share one fsync across whatever staged while the
// previous sync was in flight.
func BenchmarkDurableInsert(b *testing.B) {
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			e, err := OpenDurable(b.TempDir(), core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			admin := e.NewSession("admin", true)
			if _, err := admin.Exec("relation WRITES (K, V) key (K)"); err != nil {
				b.Fatal(err)
			}
			syncs := e.Metrics().Counter("authdb_wal_group_commits_total")
			before := syncs.Value()
			var seq atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sess := e.NewSession("admin", true)
					for k := seq.Add(1); k <= int64(b.N); k = seq.Add(1) {
						if _, err := sess.Exec(fmt.Sprintf("insert into WRITES values (w%d, v)", k)); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/float64(syncs.Value()-before), "stmts/sync")
		})
	}
}
