package ir

import (
	"fmt"

	"repro/internal/minic"
	"repro/internal/wirebin"
)

// This file defines the wire form of a function for the persistent
// artifact store. The IR is a pointer graph with cycles (values point at
// defining instructions, instructions at blocks, blocks at the function),
// so the wire form flattens everything to the dense per-function ID spaces
// the constructors already maintain: values, instructions, and blocks are
// serialized once and referenced by int32 ID (-1 = nil). Export and Import
// reproduce the function exactly — including ID counters and constant
// intern tables — so a warm-loaded function is indistinguishable from the
// one the build produced.

// Strings that repeat across a function's values and instructions — type
// base names, source file names, callee names, struct field names — are
// interned into FuncWire.Strs and referenced by index (-1 = ""). gob does
// not deduplicate strings, so without the table every instruction's
// Pos.File would be re-transmitted and re-allocated on decode; with it the
// per-element fields are plain integers.

// ValueWire is the serialized form of one Value.
type ValueWire struct {
	ID       int32
	Kind     ValueKind
	Name     string
	TypeBase int32 // string-table index of Type.Base
	TypePtr  int32
	Def      int32 // instruction ID, -1 for none
	IntVal   int64
	BoolVal  bool
	ParamIdx int32
	Aux      bool
}

// InstrWire is the serialized form of one Instr. Dst/Dsts/Args hold value
// IDs; Blocks holds block IDs. A -1 slot means nil (void call receivers).
// Sub, Callee, and PosFile are string-table indices.
type InstrWire struct {
	ID        int32
	Op        Op
	Dst       int32
	Dsts      []int32
	Args      []int32
	Sub       int32
	Callee    int32
	Blocks    []int32
	PosFile   int32
	PosLine   int32
	PosCol    int32
	Synthetic bool
}

// BlockWire is the serialized form of one Block.
type BlockWire struct {
	ID     int32
	Instrs []InstrWire
	Preds  []int32
	Succs  []int32
}

// FuncWire is the serialized form of one Func.
type FuncWire struct {
	Name   string
	Ret    minic.Type
	Params []int32
	Strs   []string    // intern table for repeated strings
	Values []ValueWire // every live value, ascending ID
	Blocks []BlockWire // in Func.Blocks order
	Entry  int32
	Exit   int32
	Unit   int
	Pos    minic.Pos
	AuxIn  []AuxSpec
	AuxOut []AuxSpec
	// ID counters, preserved so post-import edits allocate fresh IDs.
	NextValID   int32
	NextInstrID int32
	NextBlockID int32
}

// strTable interns strings during export; index -1 is the empty string.
type strTable struct {
	ids map[string]int32
	s   []string
}

func (t *strTable) id(s string) int32 {
	if s == "" {
		return -1
	}
	if id, ok := t.ids[s]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]int32)
	}
	id := int32(len(t.s))
	t.ids[s] = id
	t.s = append(t.s, s)
	return id
}

// Index maps a function's dense ID spaces back to pointers. The companion
// ssa codec resolves its serialized references through it.
type Index struct {
	Values []*Value
	Instrs []*Instr
	Blocks []*Block
}

// buildIndex collects every value, instruction, and block reachable from f
// into ID-indexed tables.
func buildIndex(f *Func) *Index {
	ix := &Index{
		Values: make([]*Value, f.nextValID),
		Instrs: make([]*Instr, f.nextInstrID),
		Blocks: make([]*Block, f.nextBlockID),
	}
	addV := func(v *Value) {
		if v != nil {
			ix.Values[v.ID] = v
		}
	}
	for _, p := range f.Params {
		addV(p)
	}
	for _, c := range f.intConsts {
		addV(c)
	}
	addV(f.boolConsts[0])
	addV(f.boolConsts[1])
	addV(f.nullConst)
	for _, b := range f.Blocks {
		ix.Blocks[b.ID] = b
		for _, in := range b.Instrs {
			ix.Instrs[in.ID] = in
			addV(in.Dst)
			for _, d := range in.Dsts {
				addV(d)
			}
			for _, a := range in.Args {
				addV(a)
			}
		}
	}
	return ix
}

func valID(v *Value) int32 {
	if v == nil {
		return -1
	}
	return int32(v.ID)
}

func instrID(in *Instr) int32 {
	if in == nil {
		return -1
	}
	return int32(in.ID)
}

func blockID(b *Block) int32 {
	if b == nil {
		return -1
	}
	return int32(b.ID)
}

// ExportFunc flattens f into its wire form.
func ExportFunc(f *Func) *FuncWire {
	ix := buildIndex(f)
	w := &FuncWire{
		Name: f.Name, Ret: f.Ret,
		Entry: blockID(f.Entry), Exit: blockID(f.Exit),
		Unit: f.Unit, Pos: f.Pos,
		AuxIn: f.AuxIn, AuxOut: f.AuxOut,
		NextValID:   int32(f.nextValID),
		NextInstrID: int32(f.nextInstrID),
		NextBlockID: int32(f.nextBlockID),
	}
	w.Params = make([]int32, len(f.Params))
	for i, p := range f.Params {
		w.Params[i] = valID(p)
	}
	var strs strTable
	for _, v := range ix.Values {
		if v == nil {
			continue // ID allocated but value no longer live
		}
		w.Values = append(w.Values, ValueWire{
			ID: int32(v.ID), Kind: v.Kind, Name: v.Name,
			TypeBase: strs.id(v.Type.Base), TypePtr: int32(v.Type.Ptr),
			Def: instrID(v.Def), IntVal: v.IntVal, BoolVal: v.BoolVal,
			ParamIdx: int32(v.ParamIdx), Aux: v.Aux,
		})
	}
	w.Blocks = make([]BlockWire, len(f.Blocks))
	for i, b := range f.Blocks {
		bw := BlockWire{ID: int32(b.ID)}
		bw.Instrs = make([]InstrWire, len(b.Instrs))
		for j, in := range b.Instrs {
			iw := InstrWire{
				ID: int32(in.ID), Op: in.Op, Dst: valID(in.Dst),
				Sub: strs.id(in.Sub), Callee: strs.id(in.Callee),
				PosFile: strs.id(in.Pos.File), PosLine: int32(in.Pos.Line), PosCol: int32(in.Pos.Col),
				Synthetic: in.Synthetic,
			}
			if len(in.Dsts) > 0 {
				iw.Dsts = make([]int32, len(in.Dsts))
				for k, d := range in.Dsts {
					iw.Dsts[k] = valID(d)
				}
			}
			if len(in.Args) > 0 {
				iw.Args = make([]int32, len(in.Args))
				for k, a := range in.Args {
					iw.Args[k] = valID(a)
				}
			}
			if len(in.Blocks) > 0 {
				iw.Blocks = make([]int32, len(in.Blocks))
				for k, t := range in.Blocks {
					iw.Blocks[k] = blockID(t)
				}
			}
			bw.Instrs[j] = iw
		}
		if len(b.Preds) > 0 {
			bw.Preds = make([]int32, len(b.Preds))
			for j, p := range b.Preds {
				bw.Preds[j] = blockID(p)
			}
		}
		if len(b.Succs) > 0 {
			bw.Succs = make([]int32, len(b.Succs))
			for j, s := range b.Succs {
				bw.Succs[j] = blockID(s)
			}
		}
		w.Blocks[i] = bw
	}
	w.Strs = strs.s
	return w
}

// maxIDsPerEntry bounds a wire function's ID counters by its own size.
// Every ID below a counter was handed out once, but values and
// instructions that died during lowering or SSA conversion leave no wire
// entry, so a counter may exceed the live count — by less than 2x on the
// workload subjects. A counter beyond maxIDsPerEntry times the live
// entries (plus a small constant) is corruption; rejecting it keeps the
// index allocation proportional to the record.
const maxIDsPerEntry = 8

// ImportFunc rebuilds a Func (and its Index) from wire form. The wire is
// untrusted: every count and ID is checked before use, and a malformed
// function is an error, never a panic.
func ImportFunc(w *FuncWire) (*Func, *Index, error) {
	entries := len(w.Values) + len(w.Blocks) + len(w.Params)
	for _, bw := range w.Blocks {
		entries += len(bw.Instrs)
	}
	limit := maxIDsPerEntry*entries + 64
	for _, n := range []int32{w.NextValID, w.NextInstrID, w.NextBlockID} {
		if n < 0 || int(n) > limit {
			return nil, nil, fmt.Errorf("ir: import %s: implausible ID counter %d for %d entries", w.Name, n, entries)
		}
	}
	f := &Func{
		Name: w.Name, Ret: w.Ret, Unit: w.Unit, Pos: w.Pos,
		AuxIn: w.AuxIn, AuxOut: w.AuxOut,
		nextValID:   int(w.NextValID),
		nextInstrID: int(w.NextInstrID),
		nextBlockID: int(w.NextBlockID),
		intConsts:   make(map[int64]*Value),
	}
	ix := &Index{
		Values: make([]*Value, w.NextValID),
		Instrs: make([]*Instr, w.NextInstrID),
		Blocks: make([]*Block, w.NextBlockID),
	}
	value := func(id int32) (*Value, error) {
		if id == -1 {
			return nil, nil
		}
		if id < 0 || int(id) >= len(ix.Values) || ix.Values[id] == nil {
			return nil, fmt.Errorf("ir: import %s: bad value id %d", w.Name, id)
		}
		return ix.Values[id], nil
	}
	// Blocks and operands are never nil in a function the build produced;
	// only destinations and defs use the -1 slot.
	block := func(id int32) (*Block, error) {
		if id < 0 || int(id) >= len(ix.Blocks) || ix.Blocks[id] == nil {
			return nil, fmt.Errorf("ir: import %s: bad block id %d", w.Name, id)
		}
		return ix.Blocks[id], nil
	}
	str := func(id int32) (string, error) {
		if id == -1 {
			return "", nil
		}
		if id < 0 || int(id) >= len(w.Strs) {
			return "", fmt.Errorf("ir: import %s: bad string id %d", w.Name, id)
		}
		return w.Strs[id], nil
	}

	// Pass 1: values (Def wired in pass 3), restoring the intern tables.
	// Values are batch-allocated from one backing array — the artifact
	// lives or dies wholesale, and one allocation for thousands of nodes
	// is a large share of warm-restart time on the allocator alone.
	valArena := make([]Value, len(w.Values))
	for wi, vw := range w.Values {
		if vw.ID < 0 || int(vw.ID) >= len(ix.Values) || ix.Values[vw.ID] != nil {
			return nil, nil, fmt.Errorf("ir: import %s: bad value id %d", w.Name, vw.ID)
		}
		base, err := str(vw.TypeBase)
		if err != nil {
			return nil, nil, err
		}
		v := &valArena[wi]
		*v = Value{
			ID: int(vw.ID), Kind: vw.Kind, Name: vw.Name,
			Type:   minic.Type{Base: base, Ptr: int(vw.TypePtr)},
			IntVal: vw.IntVal, BoolVal: vw.BoolVal,
			ParamIdx: int(vw.ParamIdx), Aux: vw.Aux,
		}
		ix.Values[vw.ID] = v
		switch v.Kind {
		case VConstInt:
			f.intConsts[v.IntVal] = v
		case VConstBool:
			if v.BoolVal {
				f.boolConsts[1] = v
			} else {
				f.boolConsts[0] = v
			}
		case VConstNull:
			f.nullConst = v
		}
	}
	f.Params = make([]*Value, len(w.Params))
	for i, id := range w.Params {
		p, err := value(id)
		if err != nil || p == nil {
			return nil, nil, fmt.Errorf("ir: import %s: bad param id %d", w.Name, id)
		}
		f.Params[i] = p
	}

	// Pass 2: block shells, so instruction targets can resolve.
	blockArena := make([]Block, len(w.Blocks))
	f.Blocks = make([]*Block, len(w.Blocks))
	for i, bw := range w.Blocks {
		if bw.ID < 0 || int(bw.ID) >= len(ix.Blocks) || ix.Blocks[bw.ID] != nil {
			return nil, nil, fmt.Errorf("ir: import %s: bad block id %d", w.Name, bw.ID)
		}
		b := &blockArena[i]
		*b = Block{ID: int(bw.ID), Fn: f}
		ix.Blocks[bw.ID] = b
		f.Blocks[i] = b
	}

	// Pass 3: instructions, CFG edges, and value Defs. Instructions are
	// batch-allocated like values.
	nInstrs := 0
	for _, bw := range w.Blocks {
		nInstrs += len(bw.Instrs)
	}
	instrArena := make([]Instr, nInstrs)
	for i, bw := range w.Blocks {
		b := f.Blocks[i]
		b.Instrs = make([]*Instr, len(bw.Instrs))
		for j, iw := range bw.Instrs {
			if iw.ID < 0 || int(iw.ID) >= len(ix.Instrs) || ix.Instrs[iw.ID] != nil {
				return nil, nil, fmt.Errorf("ir: import %s: bad instr id %d", w.Name, iw.ID)
			}
			sub, err := str(iw.Sub)
			if err != nil {
				return nil, nil, err
			}
			callee, err := str(iw.Callee)
			if err != nil {
				return nil, nil, err
			}
			file, err := str(iw.PosFile)
			if err != nil {
				return nil, nil, err
			}
			in := &instrArena[0]
			instrArena = instrArena[1:]
			*in = Instr{
				ID: int(iw.ID), Op: iw.Op, Sub: sub, Callee: callee,
				Pos:   minic.Pos{File: file, Line: int(iw.PosLine), Col: int(iw.PosCol)},
				Block: b, Synthetic: iw.Synthetic,
			}
			if in.Dst, err = value(iw.Dst); err != nil {
				return nil, nil, err
			}
			if len(iw.Dsts) > 0 {
				in.Dsts = make([]*Value, len(iw.Dsts))
				for k, id := range iw.Dsts {
					if in.Dsts[k], err = value(id); err != nil {
						return nil, nil, err
					}
				}
			}
			if len(iw.Args) > 0 {
				in.Args = make([]*Value, len(iw.Args))
				for k, id := range iw.Args {
					if in.Args[k], err = value(id); err != nil || in.Args[k] == nil {
						return nil, nil, fmt.Errorf("ir: import %s: bad operand id %d", w.Name, id)
					}
				}
			}
			if len(iw.Blocks) > 0 {
				in.Blocks = make([]*Block, len(iw.Blocks))
				for k, id := range iw.Blocks {
					if in.Blocks[k], err = block(id); err != nil {
						return nil, nil, err
					}
				}
			}
			ix.Instrs[iw.ID] = in
			b.Instrs[j] = in
		}
	}
	for i, bw := range w.Blocks {
		b := f.Blocks[i]
		var err error
		if len(bw.Preds) > 0 {
			b.Preds = make([]*Block, len(bw.Preds))
			for j, id := range bw.Preds {
				if b.Preds[j], err = block(id); err != nil {
					return nil, nil, err
				}
			}
		}
		if len(bw.Succs) > 0 {
			b.Succs = make([]*Block, len(bw.Succs))
			for j, id := range bw.Succs {
				if b.Succs[j], err = block(id); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	// Defs last: they reference instructions.
	for _, vw := range w.Values {
		if vw.Def == -1 {
			continue
		}
		if vw.Def < 0 || int(vw.Def) >= len(ix.Instrs) || ix.Instrs[vw.Def] == nil {
			return nil, nil, fmt.Errorf("ir: import %s: bad def id %d", w.Name, vw.Def)
		}
		ix.Values[vw.ID].Def = ix.Instrs[vw.Def]
	}
	var err error
	if f.Entry, err = block(w.Entry); err != nil {
		return nil, nil, err
	}
	if f.Exit, err = block(w.Exit); err != nil {
		return nil, nil, err
	}
	if err := Verify(f); err != nil {
		return nil, nil, fmt.Errorf("ir: import: %w", err)
	}
	return f, ix, nil
}

// Binary codec for FuncWire: field-by-field wirebin encoding, in a fixed
// order Append and Decode must keep in lockstep. The artifact store bundles
// these blobs into segments; gob's reflective decode of this struct (the
// largest artifact section) dominated warm-restart time, and the linear
// scan here replaces it.

func appendValueWire(e *wirebin.Writer, v *ValueWire) {
	e.I32(v.ID)
	e.U8(uint8(v.Kind))
	e.Str(v.Name)
	e.I32(v.TypeBase)
	e.I32(v.TypePtr)
	e.I32(v.Def)
	e.Varint(v.IntVal)
	e.Bool(v.BoolVal)
	e.I32(v.ParamIdx)
	e.Bool(v.Aux)
}

func decodeValueWire(r *wirebin.Reader, v *ValueWire) {
	v.ID = r.I32()
	v.Kind = ValueKind(r.U8())
	v.Name = r.Str()
	v.TypeBase = r.I32()
	v.TypePtr = r.I32()
	v.Def = r.I32()
	v.IntVal = r.Varint()
	v.BoolVal = r.Bool()
	v.ParamIdx = r.I32()
	v.Aux = r.Bool()
}

func appendInstrWire(e *wirebin.Writer, in *InstrWire) {
	e.I32(in.ID)
	e.U8(uint8(in.Op))
	e.I32(in.Dst)
	e.I32s(in.Dsts)
	e.I32s(in.Args)
	e.I32(in.Sub)
	e.I32(in.Callee)
	e.I32s(in.Blocks)
	e.I32(in.PosFile)
	e.I32(in.PosLine)
	e.I32(in.PosCol)
	e.Bool(in.Synthetic)
}

func decodeInstrWire(r *wirebin.Reader, in *InstrWire) {
	in.ID = r.I32()
	in.Op = Op(r.U8())
	in.Dst = r.I32()
	in.Dsts = r.I32s()
	in.Args = r.I32s()
	in.Sub = r.I32()
	in.Callee = r.I32()
	in.Blocks = r.I32s()
	in.PosFile = r.I32()
	in.PosLine = r.I32()
	in.PosCol = r.I32()
	in.Synthetic = r.Bool()
}

func appendAuxSpecs(e *wirebin.Writer, specs []AuxSpec) {
	e.Uvarint(uint64(len(specs)))
	for _, a := range specs {
		e.Int(a.Root)
		e.Str(a.Global)
		e.Int(a.Depth)
	}
}

func decodeAuxSpecs(r *wirebin.Reader) []AuxSpec {
	n := r.Len()
	if n == 0 {
		return nil
	}
	out := make([]AuxSpec, n)
	for i := range out {
		out[i] = AuxSpec{Root: r.Int(), Global: r.Str(), Depth: r.Int()}
	}
	return out
}

// AppendWire appends w's binary encoding to e.
func (w *FuncWire) AppendWire(e *wirebin.Writer) {
	e.Str(w.Name)
	e.Str(w.Ret.Base)
	e.Int(w.Ret.Ptr)
	e.I32s(w.Params)
	e.Strs(w.Strs)
	e.Uvarint(uint64(len(w.Values)))
	for i := range w.Values {
		appendValueWire(e, &w.Values[i])
	}
	e.Uvarint(uint64(len(w.Blocks)))
	for i := range w.Blocks {
		bw := &w.Blocks[i]
		e.I32(bw.ID)
		e.Uvarint(uint64(len(bw.Instrs)))
		for j := range bw.Instrs {
			appendInstrWire(e, &bw.Instrs[j])
		}
		e.I32s(bw.Preds)
		e.I32s(bw.Succs)
	}
	e.I32(w.Entry)
	e.I32(w.Exit)
	e.Int(w.Unit)
	e.Str(w.Pos.File)
	e.Int(w.Pos.Line)
	e.Int(w.Pos.Col)
	appendAuxSpecs(e, w.AuxIn)
	appendAuxSpecs(e, w.AuxOut)
	e.I32(w.NextValID)
	e.I32(w.NextInstrID)
	e.I32(w.NextBlockID)
}

// DecodeFuncWire reads one FuncWire from r.
func DecodeFuncWire(r *wirebin.Reader) (*FuncWire, error) {
	w := &FuncWire{}
	w.Name = r.Str()
	w.Ret.Base = r.Str()
	w.Ret.Ptr = r.Int()
	w.Params = r.I32s()
	w.Strs = r.Strs()
	if n := r.Len(); n > 0 {
		w.Values = make([]ValueWire, n)
		for i := range w.Values {
			decodeValueWire(r, &w.Values[i])
		}
	}
	if n := r.Len(); n > 0 {
		w.Blocks = make([]BlockWire, n)
		for i := range w.Blocks {
			bw := &w.Blocks[i]
			bw.ID = r.I32()
			if m := r.Len(); m > 0 {
				bw.Instrs = make([]InstrWire, m)
				for j := range bw.Instrs {
					decodeInstrWire(r, &bw.Instrs[j])
				}
			}
			bw.Preds = r.I32s()
			bw.Succs = r.I32s()
		}
	}
	w.Entry = r.I32()
	w.Exit = r.I32()
	w.Unit = r.Int()
	w.Pos.File = r.Str()
	w.Pos.Line = r.Int()
	w.Pos.Col = r.Int()
	w.AuxIn = decodeAuxSpecs(r)
	w.AuxOut = decodeAuxSpecs(r)
	w.NextValID = r.I32()
	w.NextInstrID = r.I32()
	w.NextBlockID = r.I32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ir: decode func wire: %w", err)
	}
	return w, nil
}
