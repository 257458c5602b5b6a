package engine

import (
	"fmt"
	"sync/atomic"
	"testing"

	"authdb/internal/core"
)

// benchDurableInserts measures concurrent durable inserts, the workload
// group commit exists for: b.RunParallel drives GOMAXPROCS writers, so
// serial mode pays one fsync per insert while group commit shares one
// across whatever staged during the previous sync.
func benchDurableInserts(b *testing.B, group bool) {
	e, err := OpenDurable(b.TempDir(), core.DefaultOptions(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	admin := e.NewSession("admin", true)
	if _, err := admin.ExecScript("relation WRITES (K, V) key (K);\n"); err != nil {
		b.Fatal(err)
	}
	e.SetGroupCommit(group)
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess := e.NewSession("admin", true)
		for pb.Next() {
			k := seq.Add(1)
			if _, err := sess.Exec(fmt.Sprintf("insert into WRITES values (w%d, v)", k)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkDurableInsertSerial(b *testing.B) { benchDurableInserts(b, false) }
func BenchmarkDurableInsertGroup(b *testing.B)  { benchDurableInserts(b, true) }
