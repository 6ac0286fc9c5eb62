package sqlagg

import (
	"bytes"
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"newswire/internal/value"
)

// The tests here hold Program.Eval to oracleEval (oracle_test.go), byte
// for byte, over the programs the repository ships and over programs that
// reach every function, on random tables of mixed kinds.

// oraclePrograms reach every aggregate and scalar function, nested calls,
// aggregates under scalar calls and operators, the IN/LIKE/BETWEEN forms,
// WHERE clauses, int overflow and the bare-column error.
var oraclePrograms = []string{
	"SELECT COUNT(*) AS n, COUNT(x) AS nx, MIN(x) AS lo, MAX(x) AS hi, SUM(x) AS s, AVG(x) AS m, FIRST(x) AS f",
	"SELECT MIN(addr) AS lo, MAX(load) AS hi, FIRST(reps) AS f, SUM(load) AS s",
	"SELECT BIT_OR(subs) AS subs, BITCOUNT(BIT_OR(subs)) AS bits, BOOL_OR(premium) AS any, BOOL_AND(premium) AS all",
	"SELECT MINK(3, load, addr) AS lo3, MAXK(2, load, addr) AS hi2, MINK(x, y, addr) AS byx",
	"SELECT MINV(load, addr) AS lo, MAXV(free_mb, addr) AS hi, MINV(x, y) AS xy",
	"SELECT REPS(3, load, COALESCE(reps, addr)) AS reps, REPS(x, y, pubs) AS byx, REPS(1, -load, addr) AS one",
	"SELECT UNION(pubs) AS pubs, UNION(addr) AS addrs, LEN(UNION(reps)) AS n",
	"SELECT SUM(COALESCE(nmembers, 1)) AS n, SUM(COALESCE(x, y, nmembers, 1)) AS m",
	"SELECT MAX(x) + 1 AS a, MAX(x) * 2 AS b, MIN(x) - 1 AS c, SUM(x) - SUM(y) AS d, -MIN(x) AS e, ABS(MIN(y)) AS f",
	"SELECT MAX(x) / COUNT(*) AS a, SUM(x) % MAX(y) AS b, MIN(x) * MIN(y) AS c, MAX(load) + MIN(load) AS d",
	"SELECT SUM(x + y) AS a, SUM(x * y) AS b, MAX(x - y) AS c, SUM(LEN(pubs)) AS d, SUM(BITCOUNT(subs)) AS e",
	"SELECT MINK(2, HASH(addr, x), addr) AS h, MIN(HASH(x, y, pubs, subs)) AS m",
	"SELECT FIRST(CONCAT(addr, '/', reps)) AS c, MIN(addr + '!') AS p, COUNT(CONTAINS(pubs, 'p1')) AS n",
	"SELECT SUM(IF(premium, 1, 0)) AS p, FIRST(IF(x > y, x, y)) AS m, COUNT(IF(CONTAINS(reps, addr), 1, COALESCE(x))) AS r",
	"SELECT COUNT(*) AS n, MIN(x) AS m WHERE load < 0.5 AND NOT premium",
	"SELECT COUNT(*) AS n, UNION(pubs) AS p WHERE x IN (1, 2, 3) OR addr LIKE 'a%' OR y NOT BETWEEN -1 AND 1",
	"SELECT COUNT(*) AS n WHERE CONTAINS(pubs, 'p2') AND LEN(addr) > 2",
	"SELECT COUNT(*) AS n WHERE MIN(x) > 0",
	"SELECT MIN(x) IN (1, MAX(y), 3) AS a, FIRST(addr) LIKE '_:%' AS b, SUM(x) BETWEEN MIN(y) AND MAX(y) AS c",
	"SELECT COUNT(x IN (y, 1)) AS a, BOOL_OR(addr NOT LIKE '%1') AS b, BOOL_AND(load BETWEEN 0 AND 1) AS c",
	"SELECT 1 + 2 AS three, 'k' AS k, -(2) AS m, NOT TRUE AS f, COALESCE(MIN(x), MAX(y), 0) AS c",
	"SELECT x",
	"SELECT MIN(x) + y AS z",
	"SELECT COUNT(*) AS n, ABS(x) AS a",
	"SELECT MIN(x) AS m, 1 IN (2, y) AS i",
}

// repoPrograms are the aggregation programs the repository ships:
// astrolabe's DefaultAggregationSource and every literal passed to
// sqlagg.MustParse or sqlagg.Parse in a non-test file, plus E8's attributes
// arm, which extends the default program with BOOL_OR terms
// (internal/experiments/e8_filters.go). The tree is read rather than
// imported because most of those programs live in main packages or inside
// functions.
var repoPrograms = sync.OnceValues(func() (map[string]string, error) {
	root := filepath.Join("..", "..")
	fset := gotoken.NewFileSet()
	progs := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !bytes.Contains(src, []byte("sqlagg.")) && !bytes.Contains(src, []byte("DefaultAggregationSource")) {
			return nil
		}
		f, err := goparser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		var walkErr error
		ast.Inspect(f, func(n ast.Node) bool {
			var lit ast.Expr
			switch n := n.(type) {
			case *ast.ValueSpec:
				if len(n.Names) == 1 && n.Names[0].Name == "DefaultAggregationSource" && len(n.Values) == 1 {
					lit = n.Values[0]
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || len(n.Args) != 1 {
					break
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sqlagg" && (sel.Sel.Name == "MustParse" || sel.Sel.Name == "Parse") {
					lit = n.Args[0]
				}
			}
			bl, ok := lit.(*ast.BasicLit)
			if !ok || bl.Kind != gotoken.STRING {
				return true
			}
			s, err := strconv.Unquote(bl.Value)
			if err != nil {
				walkErr = err
				return false
			}
			key := "DefaultAggregationSource"
			if _, ok := n.(*ast.CallExpr); ok {
				pos := fset.Position(bl.Pos())
				rel, _ := filepath.Rel(root, pos.Filename)
				key = fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)
			}
			progs[key] = s
			return true
		})
		return walkErr
	})
	if err != nil {
		return nil, err
	}
	def, ok := progs["DefaultAggregationSource"]
	if !ok || len(progs) < 4 {
		return nil, fmt.Errorf("found %d programs, want DefaultAggregationSource and the MustParse literals of examples/monitor, examples/worldnews and experiments/ablations.go", len(progs))
	}
	e8 := def
	for i := 0; i < 3; i++ {
		e8 += fmt.Sprintf(",\n\tBOOL_OR(sub_%04d) AS sub_%04[1]d", i)
	}
	progs["E8 attributes arm"] = e8
	return progs, nil
})

// oracleAttrs are the column names tables are drawn over: those of the
// repository's programs and of oraclePrograms.
var oracleAttrs = []string{
	"nmembers", "reps", "addr", "load", "subs", "pubs", "premium",
	"cpu", "free_mb", "latency_ms", "sub_0000", "sub_0001", "x", "y",
}

// natural is the kind a column usually holds; randomValue strays from it
// one time in four.
var natural = map[string]value.Kind{
	"nmembers": value.KindInt, "reps": value.KindStrings, "addr": value.KindString,
	"load": value.KindFloat, "subs": value.KindBytes, "pubs": value.KindStrings,
	"premium": value.KindBool, "cpu": value.KindFloat, "free_mb": value.KindInt,
	"latency_ms": value.KindFloat, "sub_0000": value.KindBool, "sub_0001": value.KindBool,
	"x": value.KindInt, "y": value.KindInt,
}

var kinds = []value.Kind{
	value.KindBool, value.KindInt, value.KindFloat, value.KindString,
	value.KindBytes, value.KindTime, value.KindStrings,
}

func randomValue(r *rand.Rand, k value.Kind) value.Value {
	switch k {
	case value.KindBool:
		return value.Bool(r.Intn(2) == 0)
	case value.KindInt:
		switch r.Intn(8) {
		case 0:
			return value.Int(math.MaxInt64 - int64(r.Intn(3)))
		case 1:
			return value.Int(math.MinInt64 + int64(r.Intn(3)))
		case 2:
			return value.Int(int64(r.Intn(3)) << 62)
		}
		return value.Int(int64(r.Intn(9) - 3))
	case value.KindFloat:
		if r.Intn(10) == 0 {
			return value.Float(float64(r.Intn(5)))
		}
		return value.Float(float64(r.Intn(21)-5) / 10)
	case value.KindString:
		return value.String(string(rune('a'+r.Intn(4))) + ":" + strconv.Itoa(r.Intn(3)))
	case value.KindBytes:
		b := make([]byte, r.Intn(5))
		r.Read(b)
		return value.Bytes(b)
	case value.KindTime:
		return value.Time(time.Unix(int64(r.Intn(4)), 0))
	default:
		ss := make([]string, r.Intn(4))
		for i := range ss {
			ss[i] = []string{"p1", "p2", "p3", "a:1", "b:2", ""}[r.Intn(6)]
		}
		if len(ss) == 0 && r.Intn(2) == 0 {
			ss = nil
		}
		return value.Strings(ss)
	}
}

// randomTable draws up to 19 rows. Each column is present with
// probability 2/3 and mostly holds its natural kind.
func randomTable(r *rand.Rand) []value.Map {
	rows := make([]value.Map, r.Intn(20))
	for i := range rows {
		row := value.Map{}
		for _, a := range oracleAttrs {
			if r.Intn(3) == 0 {
				continue
			}
			k := natural[a]
			if r.Intn(4) == 0 {
				k = kinds[r.Intn(len(kinds))]
			}
			row[a] = randomValue(r, k)
		}
		rows[i] = row
	}
	return rows
}

func encodeResult(out value.Map, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return string(out.AppendBinary(nil))
}

func encodeTable(rows []value.Map) string {
	var b []byte
	for _, row := range rows {
		b = row.AppendBinary(b)
	}
	return string(b)
}

func allPrograms(t *testing.T) map[string]*Program {
	t.Helper()
	repo, err := repoPrograms()
	if err != nil {
		t.Fatal(err)
	}
	progs := make(map[string]*Program)
	for at, src := range repo {
		progs[at] = MustParse(src)
	}
	for _, src := range oraclePrograms {
		progs[src] = MustParse(src)
	}
	return progs
}

// TestEvalMatchesOracle runs each program twice in a row on different
// tables and requires both outputs to be byte-identical to the oracle's.
// The first output is re-encoded after the second run, so an output that
// aliases evaluator scratch, or an aggregator that carries state from one
// Eval into the next, shows as a difference. Inputs must come out as they
// went in.
func TestEvalMatchesOracle(t *testing.T) {
	progs := allPrograms(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := progs[name]
		check := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			t1, t2 := randomTable(r), randomTable(r)
			in1, in2 := encodeTable(t1), encodeTable(t2)
			want1, want2 := encodeResult(oracleEval(p, t1)), encodeResult(oracleEval(p, t2))
			out1, err1 := p.Eval(t1)
			got1 := encodeResult(out1, err1)
			got2 := encodeResult(p.Eval(t2))
			switch {
			case got1 != want1:
				t.Logf("seed %d: first Eval differs from the oracle:\n got %q\nwant %q", seed, got1, want1)
			case got2 != want2:
				t.Logf("seed %d: second Eval differs from the oracle:\n got %q\nwant %q", seed, got2, want2)
			case encodeResult(out1, err1) != got1:
				t.Logf("seed %d: the first output changed during the second Eval", seed)
			case encodeTable(t1) != in1 || encodeTable(t2) != in2:
				t.Logf("seed %d: Eval changed its input rows", seed)
			default:
				return true
			}
			return false
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestIntOverflowBecomesFloat: a sum, +, - or * of ints whose exact result
// leaves int64 answers in float rather than wrapping around.
func TestIntOverflowBecomesFloat(t *testing.T) {
	rows := []value.Map{{"x": value.Int(math.MaxInt64)}, {"x": value.Int(1)}}
	for src, want := range map[string]value.Value{
		"SELECT SUM(x) AS v":                          value.Float(math.MaxInt64 + 1.0),
		"SELECT MAX(x) + 1 AS v":                      value.Float(math.MaxInt64 + 1.0),
		"SELECT MAX(x) * 2 AS v":                      value.Float(2 * float64(math.MaxInt64)),
		"SELECT -MAX(x) - 2 AS v":                     value.Float(-float64(math.MaxInt64) - 2),
		"SELECT (-MAX(x) - 1) * -1 AS v":              value.Float(-float64(math.MinInt64)),
		"SELECT -1 - (-MAX(x) - 1) AS v":              value.Int(math.MaxInt64),
		"SELECT MAX(x) + -1 AS v":                     value.Int(math.MaxInt64 - 1),
		"SELECT SUM(x) - SUM(x) AS v":                 value.Float(0),
		"SELECT SUM(COALESCE(y, x)) - 1 AS v":         value.Float(math.MaxInt64),
		"SELECT MIN(x) * 3037000499 AS v":             value.Int(3037000499),
		"SELECT (MIN(x) + 1) * 3037000500 AS v":       value.Int(6074001000),
		"SELECT MIN(x) - MAX(x) - MAX(x) AS v":        value.Float(1 - 2*float64(math.MaxInt64)),
		"SELECT MAX(x) - MIN(x) + MIN(x) AS v":        value.Int(math.MaxInt64),
		"SELECT 4611686018427387904 * 2 AS v":         value.Float(math.MaxInt64 + 1.0),
		"SELECT -4611686018427387904 * 2 AS v":        value.Int(math.MinInt64),
		"SELECT -4611686018427387904 * -2 AS v":       value.Float(math.MaxInt64 + 1.0),
		"SELECT (-4611686018427387904 * 2) * -1 AS v": value.Float(math.MaxInt64 + 1.0),
	} {
		if got := evalOne(t, src, rows); !got.Equal(want) || got.Kind() != want.Kind() {
			t.Errorf("%s = %v (%v), want %v (%v)", src, got, got.Kind(), want, want.Kind())
		}
	}
}
