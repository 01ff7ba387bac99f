package core

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/cond"
	"repro/internal/ir"
	"repro/internal/modref"
	"repro/internal/obs"
	"repro/internal/ssa"
	"repro/internal/store"
	"repro/internal/wirebin"
)

// Serialization of funcArtifacts for the persistent store. A record holds
// only the front half of a function's build — the part that costs more to
// rebuild than to decode:
//
//   - the lowered, SSA-converted, connector-transformed IR (ir codec);
//   - the SSA info and the condition nodes it references (ssa, cond);
//   - the Mod/Ref summary, the AST/summary/signature/dependency
//     fingerprints, and the callee list.
//
// The back half — the local points-to result and the SEG — is not
// persisted. Both are linear, per-function passes over the IR above
// (§3.1.1, Definition 3.2). Re-deriving them costs about as much CPU as
// decoding them (DESIGN.md "Persistent store" has the per-kind numbers),
// and the rebuild runs on every worker inside the build wavefront instead
// of on the single goroutine that reads the unit records.
// A warm-loaded artifact therefore arrives with seg == nil and its F-node
// runs pta.Analyze and seg.Build on it (session.go). The fields are
// encoded with the wirebin binary layout, a flat length-prefixed format
// read with a linear scan.
//
// Artifacts persist in one record per translation unit, a *segment*,
// keyed "unit-<i>" under store.NSArtifact, where i is the unit's index in
// the Update. It holds the artifacts of every function the unit defines:
// commit rewrites a unit's record when any of its functions changed, and
// the first Update of a session reads one record per unit that has
// functions. The unit index is part of every AST hash, so the key adds no
// way to invalidate an artifact; a record only ever supplies the
// functions the current parse puts in its unit.
//
// A segment from a different program shape, codec version, or with a
// corrupt stream decodes to a miss for everything in it — that unit's
// functions only; corruption costs a rebuild, never a wrong artifact and
// never a panic. Decoded counts and IDs are untrusted and bounds-checked
// before use. The cached AST declaration (funcArtifact.decl) is
// deliberately absent: Update always refreshes it from the current parse
// before anything reads it, so persisting it would only risk staleness.

// artifactCodecVersion gates decoding: bump on any wire-format change so
// old records read as misses instead of garbage. Version 5 keys one
// record per translation unit and drops the sequence number; version 4
// dropped the points-to result and the SEG from the record; version 3 was
// the first wirebin layout (version 2 was gob-encoded). Records of
// earlier layouts ("!full", "!delta-NN", or plain function names) are
// keyed differently and never read.
const artifactCodecVersion = 5

// segMagic opens every segment record, so foreign bytes fail fast before
// any field decoding.
const segMagic = "ppsg"

// unitKey is the store key of the segment holding unit i's artifacts.
func unitKey(i int) string { return "unit-" + strconv.Itoa(i) }

// pathFlagWire is one Mod/Ref summary entry in canonical order.
type pathFlagWire struct {
	Path modref.Path
	Ref  bool
	Mod  bool
}

type artifactWire struct {
	Name    string
	AstHash string
	SumFP   string
	SigFP   string
	DepFP   string
	Callees []string
	HasSum  bool
	Sum     []pathFlagWire
	Conds   []cond.NodeWire
	Fn      *ir.FuncWire
	Info    *ssa.InfoWire
}

// artifactMeta is the change-detection key for re-persisting: if it is
// unchanged since the last Put, the on-disk record is already current.
// The firewall makes this necessary — a retained artifact's summary and
// fingerprints can be refreshed at commit without a rebuild, and skipping
// the re-Put would leave a stale summary to be warm-loaded later.
func artifactMeta(progFP string, art *funcArtifact) string {
	return progFP + "|" + art.astHash + "|" + art.sumFP + "|" + art.sigFP + "|" + art.depFP
}

func exportSummary(sum *modref.Summary) (bool, []pathFlagWire) {
	if sum == nil {
		return false, nil
	}
	set := make(map[modref.Path]bool, len(sum.Ref)+len(sum.Mod))
	for p := range sum.Ref {
		set[p] = true
	}
	for p := range sum.Mod {
		set[p] = true
	}
	paths := make([]modref.Path, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Slice(paths, func(i, j int) bool {
		a, b := paths[i], paths[j]
		if a.Root.Param != b.Root.Param {
			return a.Root.Param < b.Root.Param
		}
		if a.Root.Global != b.Root.Global {
			return a.Root.Global < b.Root.Global
		}
		return a.Depth < b.Depth
	})
	out := make([]pathFlagWire, len(paths))
	for i, p := range paths {
		out[i] = pathFlagWire{Path: p, Ref: sum.Ref[p], Mod: sum.Mod[p]}
	}
	return true, out
}

func importSummary(has bool, ws []pathFlagWire) *modref.Summary {
	if !has {
		return nil
	}
	sum := modref.NewSummary()
	for _, w := range ws {
		if w.Ref {
			sum.Ref[w.Path] = true
		}
		if w.Mod {
			sum.Mod[w.Path] = true
		}
	}
	return sum
}

// exportArtifactWire flattens art into its wire form.
func exportArtifactWire(name string, art *funcArtifact) (*artifactWire, error) {
	conds, err := art.info.Conds.Export()
	if err != nil {
		return nil, fmt.Errorf("artifact %s: %w", name, err)
	}
	// Detection grows the builder in place after the build. Persist only
	// the nodes that existed when the build snapshotted condNodes (a
	// prefix: operands always precede their users), so the reload's PTA
	// and SEG rebuild hash-conses back to exactly that node count.
	w := &artifactWire{
		Name:    name,
		AstHash: art.astHash,
		SumFP:   art.sumFP,
		SigFP:   art.sigFP,
		DepFP:   art.depFP,
		Callees: art.callees,
		Conds:   conds[:art.condNodes],
		Fn:      ir.ExportFunc(art.fn),
		Info:    ssa.ExportInfo(art.info),
	}
	w.HasSum, w.Sum = exportSummary(art.sum)
	return w, nil
}

func appendPathFlags(e *wirebin.Writer, ws []pathFlagWire) {
	e.Uvarint(uint64(len(ws)))
	for i := range ws {
		w := &ws[i]
		e.Int(w.Path.Root.Param)
		e.Str(w.Path.Root.Global)
		e.Int(w.Path.Depth)
		e.Bool(w.Ref)
		e.Bool(w.Mod)
	}
}

func decodePathFlags(r *wirebin.Reader) []pathFlagWire {
	n := r.Len()
	if n == 0 {
		return nil
	}
	out := make([]pathFlagWire, n)
	for i := range out {
		w := &out[i]
		w.Path.Root.Param = r.Int()
		w.Path.Root.Global = r.Str()
		w.Path.Depth = r.Int()
		w.Ref = r.Bool()
		w.Mod = r.Bool()
	}
	return out
}

func appendArtifactWire(e *wirebin.Writer, w *artifactWire) {
	e.Str(w.Name)
	e.Str(w.AstHash)
	e.Str(w.SumFP)
	e.Str(w.SigFP)
	e.Str(w.DepFP)
	e.Strs(w.Callees)
	e.Bool(w.HasSum)
	appendPathFlags(e, w.Sum)
	cond.AppendNodeWires(e, w.Conds)
	w.Fn.AppendWire(e)
	w.Info.AppendWire(e)
}

func decodeArtifactWire(r *wirebin.Reader) (*artifactWire, error) {
	w := &artifactWire{}
	w.Name = r.Str()
	w.AstHash = r.Str()
	w.SumFP = r.Str()
	w.SigFP = r.Str()
	w.DepFP = r.Str()
	w.Callees = r.Strs()
	w.HasSum = r.Bool()
	w.Sum = decodePathFlags(r)
	var err error
	if w.Conds, err = cond.DecodeNodeWires(r); err != nil {
		return nil, err
	}
	if w.Fn, err = ir.DecodeFuncWire(r); err != nil {
		return nil, err
	}
	if w.Info, err = ssa.DecodeInfoWire(r); err != nil {
		return nil, err
	}
	return w, nil
}

// encodeSegment bundles the named artifacts into one segment record: a
// magic-prefixed header (codec version, program-shape fingerprint, count)
// followed by Count artifactWire encodings.
func encodeSegment(progFP string, names []string, arts map[string]*funcArtifact) ([]byte, error) {
	e := &wirebin.Writer{B: make([]byte, 0, 64<<10)}
	e.B = append(e.B, segMagic...)
	e.Int(artifactCodecVersion)
	e.Str(progFP)
	e.Int(len(names))
	for _, name := range names {
		w, err := exportArtifactWire(name, arts[name])
		if err != nil {
			return nil, err
		}
		appendArtifactWire(e, w)
	}
	return e.B, nil
}

// namedArtifact is one decoded segment entry.
type namedArtifact struct {
	name string
	art  *funcArtifact
}

// decodeSegment rebuilds a segment's artifacts. Any header mismatch or
// stream error discards the whole segment (callers treat the error as a
// miss for everything in it); an artifact that decodes but fails semantic
// import is skipped individually.
func decodeSegment(progFP string, data []byte) ([]namedArtifact, error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("segment: bad magic")
	}
	r := wirebin.NewReader(data[len(segMagic):])
	version := r.Int()
	fp := r.Str()
	count := r.Int()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("segment header: %w", err)
	}
	if version != artifactCodecVersion {
		return nil, fmt.Errorf("segment: codec version %d, want %d", version, artifactCodecVersion)
	}
	if fp != progFP {
		return nil, fmt.Errorf("segment: program shape changed")
	}
	if count < 0 || count > r.Rest() {
		return nil, fmt.Errorf("segment: implausible artifact count %d", count)
	}
	out := make([]namedArtifact, 0, count)
	for i := 0; i < count; i++ {
		w, err := decodeArtifactWire(r)
		if err != nil {
			return nil, fmt.Errorf("segment entry %d: %w", i, err)
		}
		art, err := importArtifact(w)
		if err != nil {
			continue
		}
		art.persistedMeta = artifactMeta(progFP, art)
		out = append(out, namedArtifact{name: w.Name, art: art})
	}
	return out, nil
}

// importArtifact rebuilds the front half of a funcArtifact from its wire
// form; seg stays nil until the build wavefront re-derives the points-to
// result and the SEG. An inconsistent record returns an error; callers
// treat every error as a store miss and rebuild.
func importArtifact(w *artifactWire) (*funcArtifact, error) {
	name := w.Name
	b, nodes, err := cond.ImportBuilder(w.Conds)
	if err != nil {
		return nil, fmt.Errorf("artifact %s: %w", name, err)
	}
	f, ix, err := ir.ImportFunc(w.Fn)
	if err != nil {
		return nil, fmt.Errorf("artifact %s: %w", name, err)
	}
	if f.Name != name {
		return nil, fmt.Errorf("artifact %s: function names %q", name, f.Name)
	}
	inf, err := ssa.ImportInfo(w.Info, f, ix, b, nodes)
	if err != nil {
		return nil, fmt.Errorf("artifact %s: %w", name, err)
	}
	return &funcArtifact{
		astHash: w.AstHash,
		sumFP:   w.SumFP,
		sigFP:   w.SigFP,
		depFP:   w.DepFP,
		callees: w.Callees,
		sum:     importSummary(w.HasSum, w.Sum),
		fn:      f,
		info:    inf,
	}, nil
}

// loadSegments reads the segment of every unit that has functions and
// returns the artifacts each supplies for the functions the current parse
// puts in that unit (units[i] lists unit i's functions). An absent,
// corrupt or other-shape segment is counted and skipped — a miss for that
// unit's functions only, never an error.
func loadSegments(st store.Store, progFP string, units [][]string, rec *obs.Recorder) map[string]*funcArtifact {
	out := make(map[string]*funcArtifact)
	for i, names := range units {
		if len(names) == 0 {
			continue
		}
		data, ok, err := st.Get(store.NSArtifact, unitKey(i))
		if err != nil || !ok {
			continue
		}
		arts, err := decodeSegment(progFP, data)
		if err != nil {
			if rec != nil {
				rec.Counter("store.artifact.decode_errors").Inc()
			}
			continue
		}
		inUnit := make(map[string]bool, len(names))
		for _, name := range names {
			inUnit[name] = true
		}
		for _, na := range arts {
			if inUnit[na.name] {
				out[na.name] = na.art
			}
		}
	}
	return out
}
