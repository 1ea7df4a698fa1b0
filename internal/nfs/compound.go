package nfs

import (
	"fmt"

	"dpnfs/internal/fserr"
	"dpnfs/internal/rpc"
	"dpnfs/internal/xdr"
)

// CompoundArgs is a COMPOUND request: session header plus an op list.  A
// zero Session means an unsessioned compound (only EXCHANGE_ID /
// CREATE_SESSION compounds are accepted without a session).
type CompoundArgs struct {
	Tag     string
	Session uint64
	Slot    uint32
	Seq     uint32
	Ops     []Op
}

// CompoundRep is a COMPOUND reply: overall status plus results for every
// executed op (execution stops at the first failure, whose result is last).
type CompoundRep struct {
	Status  fserr.Errno
	Results []Result
}

// role names the optional backend role an operation needs (server.go).
type role uint8

const (
	roleNone      role = iota
	roleNamespace      // Namespace
	roleLayouts        // LayoutSource
)

// opTable is where an operation is declared: one row per OpNum* constant,
// indexed by it.  Everything that depends on which operations exist reads
// it — the COMPOUND codec (op, res), the metric label (name), the replay
// cache (idempotent: a pure read the server re-executes on a retransmission
// instead of caching its reply) and the server's role check (needs, and the
// status it answers with itself when the backend lacks the role).  res
// builds the operation's result carrying a status; res(fserr.OK) is the
// empty result the decoder fills.
var opTable = [...]struct {
	name       string
	idempotent bool
	needs      role
	absent     fserr.Errno
	op         func() Op
	res        func(fserr.Errno) Result
}{
	OpNumClose: {name: "CLOSE",
		op: func() Op { return &OpClose{} }, res: func(e fserr.Errno) Result { return &ResClose{errnoOnly{e}} }},
	OpNumCommit: {name: "COMMIT",
		op: func() Op { return &OpCommit{} }, res: func(e fserr.Errno) Result { return &ResCommit{errnoOnly{e}} }},
	OpNumCreate: {name: "CREATE", needs: roleNamespace, absent: fserr.Inval,
		op: func() Op { return &OpCreate{} }, res: func(e fserr.Errno) Result { return &ResCreate{fhAttr{Errno: e}} }},
	OpNumGetAttr: {name: "GETATTR", idempotent: true, needs: roleNamespace, absent: fserr.Inval,
		op: func() Op { return &OpGetAttr{} }, res: func(e fserr.Errno) Result { return &ResGetAttr{Errno: e} }},
	OpNumLookup: {name: "LOOKUP", idempotent: true, needs: roleNamespace, absent: fserr.Inval,
		op: func() Op { return &OpLookup{} }, res: func(e fserr.Errno) Result { return &ResLookup{fhAttr{Errno: e}} }},
	OpNumOpen: {name: "OPEN", needs: roleNamespace, absent: fserr.Inval,
		op: func() Op { return &OpOpen{} }, res: func(e fserr.Errno) Result { return &ResOpen{fhAttr: fhAttr{Errno: e}} }},
	OpNumPutFH: {name: "PUTFH", idempotent: true,
		op: func() Op { return &OpPutFH{} }, res: func(e fserr.Errno) Result { return &ResPutFH{errnoOnly{e}} }},
	OpNumPutRootFH: {name: "PUTROOTFH", idempotent: true, needs: roleNamespace, absent: fserr.Inval,
		op: func() Op { return &OpPutRootFH{} }, res: func(e fserr.Errno) Result { return &ResPutRootFH{errnoOnly{e}} }},
	OpNumRead: {name: "READ", idempotent: true,
		op: func() Op { return &OpRead{} }, res: func(e fserr.Errno) Result { return &ResRead{Errno: e} }},
	OpNumReadDir: {name: "READDIR", idempotent: true, needs: roleNamespace, absent: fserr.Inval,
		op: func() Op { return &OpReadDir{} }, res: func(e fserr.Errno) Result { return &ResReadDir{Errno: e} }},
	OpNumRemove: {name: "REMOVE", needs: roleNamespace, absent: fserr.Inval,
		op: func() Op { return &OpRemove{} }, res: func(e fserr.Errno) Result { return &ResRemove{errnoOnly{e}} }},
	OpNumRename: {name: "RENAME", needs: roleNamespace, absent: fserr.Inval,
		op: func() Op { return &OpRename{} }, res: func(e fserr.Errno) Result { return &ResRename{errnoOnly{e}} }},
	OpNumWrite: {name: "WRITE",
		op: func() Op { return &OpWrite{} }, res: func(e fserr.Errno) Result { return &ResWrite{Errno: e} }},
	OpNumExchangeID: {name: "EXCHANGE_ID",
		op: func() Op { return &OpExchangeID{} }, res: func(e fserr.Errno) Result { return &ResExchangeID{Errno: e} }},
	OpNumCreateSession: {name: "CREATE_SESSION",
		op: func() Op { return &OpCreateSession{} }, res: func(e fserr.Errno) Result { return &ResCreateSession{Errno: e} }},
	// IO, not Inval: what the "no pNFS" error of a layout-less backend has
	// always mapped to on the wire.
	OpNumLayoutCommit: {name: "LAYOUTCOMMIT", needs: roleLayouts, absent: fserr.IO,
		op: func() Op { return &OpLayoutCommit{} }, res: func(e fserr.Errno) Result { return &ResLayoutCommit{errnoOnly{e}} }},
	OpNumLayoutGet: {name: "LAYOUTGET", idempotent: true, needs: roleLayouts, absent: fserr.Inval,
		op: func() Op { return &OpLayoutGet{} }, res: func(e fserr.Errno) Result { return &ResLayoutGet{Errno: e} }},
	OpNumLayoutReturn: {name: "LAYOUTRETURN",
		op: func() Op { return &OpLayoutReturn{} }, res: func(e fserr.Errno) Result { return &ResLayoutReturn{errnoOnly{e}} }},
	OpNumGetDevList: {name: "GETDEVICELIST", idempotent: true, needs: roleLayouts, absent: fserr.Inval,
		op: func() Op { return &OpGetDevList{} }, res: func(e fserr.Errno) Result { return &ResGetDevList{Errno: e} }},
}

// known reports whether num is an operation this package declares.
func known(num uint32) bool { return num < uint32(len(opTable)) && opTable[num].op != nil }

// opName renders the RFC 5661 operation name, the metric label of both the
// client's and the server's per-op instruments.
func opName(num uint32) string {
	if known(num) {
		return opTable[num].name
	}
	return fmt.Sprintf("OP_%d", num)
}

// maxCompoundOps bounds the operations (and results) a COMPOUND decodes.
const maxCompoundOps = 1024

func (c *CompoundArgs) XDR(f xdr.Filter) {
	f.Text(&c.Tag)
	f.U64(&c.Session)
	f.U32(&c.Slot)
	f.U32(&c.Seq)
	numbered(f, &c.Ops, xdr.SizeUint32, func(num uint32) Op { return opTable[num].op() })
}

func (c *CompoundRep) XDR(f xdr.Filter) {
	c.Status.XDR(f)
	// Every result leads with its status word.
	numbered(f, &c.Results, 2*xdr.SizeUint32, func(num uint32) Result { return opTable[num].res(fserr.OK) })
}

// numbered passes a COMPOUND's counted list of operations or results, each
// a union armed by its operation number; decoding builds each entry from the
// operation table.
func numbered[T interface {
	Num() uint32
	xdr.Codec
}](f xdr.Filter, list *[]T, elem int, build func(num uint32) T) {
	n := f.Count(len(*list), maxCompoundOps, elem)
	if f.Decoding() {
		*list = make([]T, n)
	}
	for i, v := range *list {
		if !f.Decoding() {
			f.Union(v.Num())
		} else if num := f.Union(0); known(num) {
			v = build(num)
			(*list)[i] = v
		} else {
			f.Fail(fmt.Errorf("nfs: unknown operation %d", num))
			return
		}
		v.XDR(f)
	}
}

// CompoundArgs and CompoundRep cross rpc.Conn on their own.
func (c *CompoundArgs) MarshalXDR(e *xdr.Encoder)         { c.XDR(e) }
func (c *CompoundArgs) UnmarshalXDR(d *xdr.Decoder) error { return d.Decode(c) }
func (c *CompoundRep) MarshalXDR(e *xdr.Encoder)          { c.XDR(e) }
func (c *CompoundRep) UnmarshalXDR(d *xdr.Decoder) error  { return d.Decode(c) }

// Registry returns the rpc request registry for the NFS service (TCP mode).
func Registry() *rpc.Registry {
	reg := rpc.NewRegistry()
	reg.Register(ProcCompound, func() xdr.Unmarshaler { return &CompoundArgs{} })
	return reg
}
