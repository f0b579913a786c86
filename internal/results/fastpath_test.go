package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// encodeRef is the manifest encoder index.encode replaced: the whole index
// copied into manifestFile and marshalled by reflection. Kept as the oracle.
func encodeRef(idx *index) ([]byte, error) {
	sorted := func(set map[string]struct{}) []string {
		if len(set) == 0 {
			return nil
		}
		out := make([]string, 0, len(set))
		for k := range set {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	mf := manifestFile{
		Version:    manifestVersion,
		Generation: idx.gen,
		Experiment: sorted(idx.exp),
		Runs:       make(map[string]*manifestRun, len(idx.runs)),
	}
	for run, entry := range idx.runs {
		mr := &manifestRun{Artifacts: sorted(entry.artifacts)}
		if entry.hasMeta {
			meta := entry.meta.clone()
			mr.Meta = &meta
		}
		mf.Runs[strconv.Itoa(run)] = mr
	}
	return json.Marshal(mf)
}

// TestManifestEncodeMatchesMarshal replays seeded random mutation sequences
// and requires, after every step, the bytes json.Marshal(manifestFile) writes.
func TestManifestEncodeMatchesMarshal(t *testing.T) {
	nasty := []string{"plain", `q"uote\`, "<&>", "line\u2028sep", "\xff\xfebad", "tab\there", "\u00e9\u2713", ""}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idx := newIndex()
		pick := func() string { return nasty[rng.Intn(len(nasty))] }
		var buf []byte
		for step := 0; step < 120; step++ {
			touched := map[int]bool{}
			for n := rng.Intn(4); n >= 0; n-- {
				run := rng.Intn(121) // keys 0…120: "10" sorts before "2"
				switch rng.Intn(5) {
				case 0, 1:
					meta := RunMeta{
						Run:        run,
						StartedAt:  when.Add(time.Duration(rng.Int63n(1e12))),
						FinishedAt: when.Add(time.Duration(rng.Int63n(1e12))).In(time.FixedZone("", 3600*(rng.Intn(5)-2))),
						Failed:     rng.Intn(4) == 0,
					}
					if rng.Intn(5) > 0 {
						meta.LoopVars = map[string]string{}
						for k := rng.Intn(4); k > 0; k-- {
							meta.LoopVars["k"+pick()] = pick()
						}
					}
					if meta.Failed {
						meta.Error = "exit 1: " + pick()
					}
					idx.setMeta(meta)
					touched[run] = true
				case 2, 3:
					idx.addRunArtifact(run, "node"+strconv.Itoa(rng.Intn(3))+"/"+pick()+".log")
					touched[run] = true
				default:
					idx.addExperimentArtifact("experiment/" + pick())
				}
			}
			idx.gen += uint64(len(touched)) + 1
			got, err := idx.encode(buf[:0])
			if err != nil {
				t.Fatalf("seed %d step %d: encode: %v", seed, step, err)
			}
			buf = got
			want, err := encodeRef(idx)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: manifest differs from json.Marshal:\n got %s\nwant %s", seed, step, got, want)
			}
			if back, err := decodeIndex(got); err != nil || len(back.runs) != len(idx.runs) {
				t.Fatalf("seed %d step %d: encoded manifest does not decode: %v", seed, step, err)
			}
		}
	}
	// The empty manifest, and runs that hold nothing yet.
	idx := newIndex()
	idx.run(3)
	for _, x := range []*index{newIndex(), idx} {
		got, _ := x.encode(nil)
		if want, _ := encodeRef(x); !bytes.Equal(got, want) {
			t.Errorf("manifest = %s, want %s", got, want)
		}
	}
	// A timestamp RFC 3339 cannot carry fails the encode, as it fails Marshal.
	idx.setMeta(RunMeta{Run: 3, StartedAt: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)})
	if _, err := idx.encode(nil); err == nil {
		t.Error("encode accepted a year past 9999")
	}
	if _, err := encodeRef(idx); err == nil {
		t.Error("reference accepted a year past 9999")
	}
}

// metadata.json is the manifest's encoding of the metadata, indented: the
// bytes the json.Encoder with SetIndent wrote before.
func TestMetadataFileMatchesEncoder(t *testing.T) {
	for _, meta := range []RunMeta{
		{},
		{Run: 7, LoopVars: map[string]string{"pkt_sz": "64", "pkt_rate": "10000"}, StartedAt: when, FinishedAt: when.Add(time.Second)},
		{Run: 120, LoopVars: map[string]string{}, Failed: true, Error: "exit 1: <moongen> \"died\"\n"},
		{Run: 1, LoopVars: map[string]string{"a\xff": "\u2028", "": "&"}, StartedAt: when.In(time.FixedZone("", -7*3600))},
	} {
		var want bytes.Buffer
		got, err := meta.appendFile(nil)
		if err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(meta); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("metadata.json differs:\n got %q\nwant %q", got, want.Bytes())
		}
	}
}

// FuzzMetadataFile holds metadata.json to json.MarshalIndent byte for byte,
// with a newline, and one fails where the other does; what it writes
// DecodeRunMeta reads back as json.Unmarshal does. vars picks the loop
// variables: nil, empty, one or two.
func FuzzMetadataFile(f *testing.F) {
	f.Add(7, uint8(3), "pkt_sz", "64", "pkt_rate", "10000", false, "", when.UnixNano(), int64(1e9), int64(0))
	f.Add(120, uint8(1), "", "", "", "", true, "exit 1: <moongen> \"died\"\n", when.UnixNano(), int64(0), int64(0))
	f.Add(0, uint8(0), "", "", "", "", false, "", int64(0), int64(-5), int64(-7*3600))
	f.Add(1, uint8(3), "a\xff", "\u2028", "", "&", false, "\x00", when.UnixNano(), int64(1), int64(5*3600+1800))
	f.Add(-1, uint8(2), "k\"\\", "v<b>", "k", "v", true, "", int64(-1)<<62, int64(1)<<62, int64(24*3600))
	f.Fuzz(func(t *testing.T, run int, vars uint8, k1, v1, k2, v2 string, failed bool, errText string, start, dur, zone int64) {
		loc := time.FixedZone("", int(zone%(48*3600)))
		meta := RunMeta{Run: run, StartedAt: time.Unix(0, start).In(loc), FinishedAt: time.Unix(0, start+dur).In(loc), Failed: failed, Error: errText}
		switch vars % 4 {
		case 1:
			meta.LoopVars = map[string]string{}
		case 2:
			meta.LoopVars = map[string]string{k1: v1}
		case 3:
			meta.LoopVars = map[string]string{k1: v1, k2: v2}
		}
		got, err := meta.appendFile(nil)
		want, wantErr := json.MarshalIndent(meta, "", "  ")
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("appendFile err = %v, json.MarshalIndent err = %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("metadata.json differs:\n got %q\nwant %q", got, want)
		}
		checkDecodeRunMeta(t, want, true)
	})
}

// checkDecodeRunMeta holds DecodeRunMeta to json.Unmarshal: what it accepts,
// Unmarshal accepts too, into an equal RunMeta. must says it has to accept.
func checkDecodeRunMeta(t *testing.T, data []byte, must bool) {
	t.Helper()
	got, err := DecodeRunMeta(data)
	if err != nil {
		if must {
			t.Fatalf("DecodeRunMeta rejects %q: %v", data, err)
		}
		return
	}
	var want RunMeta
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("DecodeRunMeta accepted %q, json.Unmarshal rejects it: %v", data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: DecodeRunMeta read %#v, json.Unmarshal %#v", data, got, want)
	}
}

// FuzzDecodeRunMeta holds the one metadata.json decoder to json.Unmarshal,
// which accepts more: a key in another case or unknown, a key given twice,
// and a null member other than loop_vars.
func FuzzDecodeRunMeta(f *testing.F) {
	for _, in := range []string{
		"{\n  \"run\": 3,\n  \"loop_vars\": {\n    \"pkt_rate\": \"20000\",\n    \"pkt_sz\": \"64\"\n  },\n  \"started_at\": \"2026-10-18T03:38:52.797134931Z\",\n  \"finished_at\": \"2026-10-18T03:38:52.797847369Z\"\n}\n",
		`{"run":5,"loop_vars":{"pkt_sz":"1500"},"started_at":"2021-10-12T11:20:32+02:00","finished_at":"2021-10-12T11:20:34.5+02:00","failed":true,"error":"exit status 1: moongen \"died\"\u003c"}`,
		`{"run":0,"loop_vars":{},"started_at":"0001-01-01T00:00:00Z","finished_at":"0001-01-01T00:00:00Z"}`,
		`{"run":0,"loop_vars":null,"started_at":"0001-01-01T00:00:00Z","finished_at":"0001-01-01T00:00:00Z"}`,
		`{"run":9,"started_at":"2021-10-12T11:20:32Z"}`,
		`{"run":9,"failed":false,"error":""}`,
		`{"run":1,"Run":2}`, `{"run":1,"run":2}`, `{"run":1,"extra":true}`, `{"run":null}`, `{"error":null}`,
		`{"started_at":"2021-10-12T11:20:3\u0032Z"}`, `{"started_at":"2021-10-12"}`, `{"run":1.5}`, `null`, `{}`,
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeRunMeta(t, data, false)
	})
}

func TestRunDirNameMatchesFmt(t *testing.T) {
	for _, run := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 123456, -1, -10, -999, -1000} {
		if got, want := runDirName(run), fmt.Sprintf("run_%04d", run); got != want {
			t.Errorf("runDirName(%d) = %q, want %q", run, got, want)
		}
	}
	_, e := newExp(t)
	dir, path := e.runFile(42, "vriga/moongen.log")
	if want := filepath.Join(e.dir, "run_0042", "vriga"); dir != want {
		t.Errorf("dir = %q, want %q", dir, want)
	}
	if want := filepath.Join(e.dir, "run_0042", "vriga", "moongen.log"); path != want {
		t.Errorf("path = %q, want %q", path, want)
	}
	if dir, _ := e.runFile(42, "metadata.json"); dir != filepath.Join(e.dir, "run_0042") {
		t.Errorf("dir of a run-level file = %q", dir)
	}
}

// countLstats installs the fault hook for the test to record the paths the
// write path asks the disk about.
func countLstats(t *testing.T) *[]string {
	t.Helper()
	var asked []string
	setFSHook(t, func(op, path string) error {
		if op == "lstat" {
			asked = append(asked, path)
		}
		return nil
	})
	return &asked
}

// raceEnabled is set under the race detector, whose sync.Pool drops what is
// put back at random.
var raceEnabled bool

// setFSHook installs fn as the store's fault hook for the test.
func setFSHook(t *testing.T, fn func(op, path string) error) {
	t.Helper()
	fsHook = fn
	t.Cleanup(func() { fsHook = nil })
}

// A campaign into an experiment the store created asks the disk once per
// run whether its directory is there (an out-of-band run_NNNN takes the
// per-file path), and never about a file: the staged run is the handle's.
func TestFreshExperimentIngestLstatsOncePerRun(t *testing.T) {
	asked := countLstats(t)
	_, e := newExp(t)
	if err := e.AddExperimentArtifact("spans.json", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if err := e.AddExperimentArtifact("experiment/loadgen/setup.sh", []byte("true\n")); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 60; run++ {
		for _, node := range []string{"vriga", "vtartu"} {
			if err := e.AddRunArtifact(run, node, "measurement.out", []byte("out")); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.AddRunArtifact(run, "vriga", "moongen.log", bytes.Repeat([]byte("x"), dedupMinBytes)); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteRunResources(run, []byte("{}\n")); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteRunMeta(RunMeta{Run: run}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(*asked) != 60 {
		t.Errorf("%d Lstats for 60 runs", len(*asked))
	}
	for run, path := range *asked {
		if want := filepath.Join(e.dir, runDirName(run)); path != want {
			t.Fatalf("Lstat %d of %q, want the run directory %q", run, path, want)
		}
	}
	paths, err := e.ArtifactPaths()
	if err != nil || len(paths) != 2+60*5 {
		t.Fatalf("paths = %d, %v", len(paths), err)
	}
	for _, rel := range paths {
		if _, err := os.Stat(filepath.Join(e.dir, rel)); err != nil {
			t.Fatalf("recorded but not on disk: %v", err)
		}
	}
}

// A run directory that was there before the handle wrote to the run is the
// disk's, not the handle's: the run takes the per-file path, and a file
// placed out-of-band is overwritten synchronously. The disk is asked once.
func TestOutOfBandFileInPreexistingDirOverwrittenSynchronously(t *testing.T) {
	asked := countLstats(t)
	_, e := newExp(t)
	dir := filepath.Join(e.dir, "run_0000", "vriga")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	squatter := filepath.Join(dir, "measurement.out")
	if err := os.WriteFile(squatter, []byte("out-of-band"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRunArtifact(0, "vriga", "measurement.out", []byte("recorded")); err != nil {
		t.Fatal(err)
	}
	// No Sync: a synchronous overwrite is on disk when the call returns.
	if got, _ := os.ReadFile(squatter); string(got) != "recorded" {
		t.Errorf("file = %q right after the write, want the recorded bytes", got)
	}
	if len(*asked) != 1 || (*asked)[0] != filepath.Dir(dir) {
		t.Errorf("Lstats = %q, want exactly the squatted run directory", *asked)
	}
	// A new file in the same run is written at once too, without asking again.
	if err := e.AddRunArtifact(0, "vriga", "other.out", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "other.out")); string(got) != "new" {
		t.Errorf("other.out = %q right after the write", got)
	}
	if len(*asked) != 1 {
		t.Errorf("Lstats = %d after a second write into the foreign run, want 1", len(*asked))
	}
}

// A run committed already is rewritten synchronously, file by file, and a
// reader never sees the old bytes once the rewrite has returned.
func TestRewriteAfterSyncIsSynchronous(t *testing.T) {
	asked := countLstats(t)
	_, e := newExp(t)
	if err := e.AddRunArtifact(0, "vriga", "measurement.out", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteRunMeta(RunMeta{Run: 0}); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		want := fmt.Sprintf("rewrite %d", i)
		if err := e.AddRunArtifact(0, "vriga", "measurement.out", []byte(want)); err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		staged := len(e.staged)
		e.mu.Unlock()
		if staged != 0 {
			t.Fatalf("rewrite %d of a committed run was staged", i)
		}
		if got, err := os.ReadFile(filepath.Join(e.dir, "run_0000", "vriga", "measurement.out")); err != nil || string(got) != want {
			t.Fatalf("file after rewrite %d = %q, %v", i, got, err)
		}
	}
	if err := e.WriteRunMeta(RunMeta{Run: 0, Failed: true, Error: "second"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(e.dir, "run_0000", "metadata.json"))
	if err != nil || !strings.Contains(string(data), "second") {
		t.Errorf("metadata.json right after its rewrite = %q, %v", data, err)
	}
	if len(*asked) != 1 {
		t.Errorf("Lstats = %q, want the one of run 0's first write", *asked)
	}
}

// Temp files are named from a counter under the reserved prefix: a name
// already taken (another process, a crashed writer) is skipped, and whatever
// is left behind is what sweepTmp looks for.
func TestCreateTmpSkipsTakenNames(t *testing.T) {
	dir := t.TempDir()
	next := tmpSeq.Load() + 1
	for i := uint64(0); i < 3; i++ {
		squat := filepath.Join(dir, tmpPrefix+strconv.FormatUint(next+i, 10))
		if err := os.WriteFile(squat, []byte("orphan"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	f, err := createTmp(dir)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if !strings.HasPrefix(filepath.Base(f.Name()), tmpPrefix) {
		t.Errorf("temp file %q lacks the reserved prefix", f.Name())
	}
	if info, err := os.Stat(f.Name()); err != nil || info.Size() != 0 || info.Mode().Perm() != 0o600 {
		t.Errorf("temp file: %v, %v — want a new, empty, 0600 file", info, err)
	}
	sweepTmp(dir, false)
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("%d entries survive the sweep", len(left))
	}
	if _, err := createTmp(filepath.Join(dir, "missing")); err == nil {
		t.Error("createTmp in a missing directory succeeded")
	}
}
