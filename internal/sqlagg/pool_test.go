package sqlagg_test

import (
	"fmt"
	"sync"
	"testing"

	"newswire/internal/astrolabe"
	"newswire/internal/value"
)

// zoneTable builds n child rows of the kind the default program reads: leaf
// rows (address, load, a subscription filter and a publisher roster) when
// leaf is set, otherwise child-zone aggregates that also carry a member
// count and an elected representative list. seed varies the content.
func zoneTable(n, seed int, leaf bool) []value.Map {
	rows := make([]value.Map, n)
	for i := range rows {
		addr := fmt.Sprintf("10.0.%d.%d:7400", seed, i)
		subs := make([]byte, 32)
		subs[(i+seed)%32] = 1 << uint(i%8)
		row := value.Map{
			"addr": value.String(addr),
			"load": value.Float(float64((i*7+seed)%10) / 10),
			"subs": value.Bytes(subs),
			"pubs": value.Strings([]string{fmt.Sprintf("pub-%d", (i+seed)%3)}),
		}
		if !leaf {
			row["nmembers"] = value.Int(int64(4 + i%3))
			row["reps"] = value.Strings([]string{addr, fmt.Sprintf("10.1.%d.%d:7400", seed, i)})
		}
		rows[i] = row
	}
	return rows
}

// TestDefaultAggregationAllocations holds the evaluation the agent runs on
// every content change to its output: the map (two objects), the two
// string lists and the byte array it returns. The tree-walking evaluator
// made 91 objects per evaluation of the 16 leaf rows and 75 of the 16
// zone rows.
func TestDefaultAggregationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates and makes sync.Pool drop Puts")
	}
	const budget = 5
	p := astrolabe.DefaultAggregation()
	for _, leaf := range []bool{true, false} {
		rows := zoneTable(16, 1, leaf)
		if _, err := p.Eval(rows); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := p.Eval(rows); err != nil {
				t.Fatal(err)
			}
		})
		if got > budget {
			t.Errorf("leaf=%v: DefaultAggregation().Eval over 16 rows makes %.1f objects, budget %d", leaf, got, budget)
		}
	}
}

// TestSharedProgramConcurrentEval: goroutines sharing one Program, each on
// its own table, all get the output a lone Eval gives. Under -race this
// also checks that the pooled evaluators are never shared by two calls.
func TestSharedProgramConcurrentEval(t *testing.T) {
	p := astrolabe.DefaultAggregation()
	const workers = 8
	tables := make([][]value.Map, workers)
	want := make([]string, workers)
	for w := range tables {
		tables[w] = zoneTable(4+w, w, w%2 == 0)
		out, err := p.Eval(tables[w])
		if err != nil {
			t.Fatal(err)
		}
		want[w] = string(out.AppendBinary(nil))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				out, err := p.Eval(tables[w])
				if err != nil {
					t.Error(err)
					return
				}
				if got := string(out.AppendBinary(nil)); got != want[w] {
					t.Errorf("worker %d, run %d: output differs from a lone Eval's", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
