package ptl

import (
	"testing"
	"testing/quick"

	"qsmpi/internal/model"
)

// encode returns h's wire form in a buffer of exactly HeaderSize bytes.
func encode(h Header) []byte {
	b := make([]byte, HeaderSize)
	h.EncodeTo(b)
	return b
}

func TestHeaderSize(t *testing.T) {
	h := Header{Type: TypeMatch}
	if got := len(encode(h)); got != 64 {
		t.Fatalf("encoded header is %d bytes, want 64 (the paper's header size)", got)
	}
}

// TestHeaderLeavesTheEagerLimit: the eager limit ptlelan4 derives, one QDMA
// slot minus the header, is the paper's 1984 bytes.
func TestHeaderLeavesTheEagerLimit(t *testing.T) {
	if slot := model.Default().QDMAMaxPayload; slot-HeaderSize != 1984 {
		t.Errorf("eager limit: slot %d - header %d = %d, want 1984", slot, HeaderSize, slot-HeaderSize)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	in := Header{
		Type: TypeRndv, Flags: 3, CommID: 7,
		SrcRank: 5, DstRank: -1, Tag: -42, SeqNum: 9000,
		FragLen: 1984, MsgLen: 1 << 30, Offset: 4096,
		SendReq: 0xdeadbeef, RecvReq: 0xfeedface, SrcAddr: 5 << 32,
	}
	out, err := DecodeHeader(encode(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip:\n in=%+v\nout=%+v", in, out)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(flags uint8, comm uint16, src, dst, tag int32, seq, fl uint32, ml, off, sr, rr, sa uint64) bool {
		for _, typ := range []MsgType{TypeMatch, TypeRndv, TypeAck, TypeFrag, TypeFin, TypeFinAck} {
			in := Header{
				Type: typ, Flags: flags, CommID: comm,
				SrcRank: src, DstRank: dst, Tag: tag, SeqNum: seq,
				FragLen: fl, MsgLen: ml, Offset: off,
				SendReq: sr, RecvReq: rr, SrcAddr: sa,
			}
			out, err := DecodeHeader(encode(in))
			if err != nil || out != in {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeHeader(make([]byte, 10)); err == nil {
		t.Fatal("short buffer accepted")
	}
	bad := make([]byte, 64)
	bad[0] = 99
	if _, err := DecodeHeader(bad); err == nil {
		t.Fatal("bad type accepted")
	}
	zero := make([]byte, 64)
	if _, err := DecodeHeader(zero); err == nil {
		t.Fatal("zero type accepted")
	}
}

func TestE4SrcAddr(t *testing.T) {
	h := Header{SrcAddr: uint64(7)<<32 | 128}
	a := h.E4SrcAddr()
	if a.Add(0) != a {
		t.Fatal("address identity broken")
	}
}

func TestLifecycle(t *testing.T) {
	l := NewLifecycle("test")
	if l.Stage() != StageClosed {
		t.Fatal("new lifecycle not closed")
	}
	l.Open()
	l.Activate()
	l.RequireActive("send")
	l.Finalize()
	l.Close()
	l.Open() // reopen after close is legal
	if l.Stage() != StageOpened {
		t.Fatalf("stage = %v", l.Stage())
	}
}

func TestLifecycleViolations(t *testing.T) {
	cases := map[string]func(l *Lifecycle){
		"activate-closed": func(l *Lifecycle) { l.Activate() },
		"finalize-opened": func(l *Lifecycle) { l.Open(); l.Finalize() },
		"close-active":    func(l *Lifecycle) { l.Open(); l.Activate(); l.Close() },
		"double-open":     func(l *Lifecycle) { l.Open(); l.Open() },
		"send-finalized": func(l *Lifecycle) {
			l.Open()
			l.Activate()
			l.Finalize()
			l.RequireActive("send")
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn(NewLifecycle(name))
		}()
	}
}

func TestMsgTypeString(t *testing.T) {
	for typ, want := range map[MsgType]string{
		TypeMatch: "MATCH", TypeRndv: "RNDV", TypeAck: "ACK",
		TypeFrag: "FRAG", TypeFin: "FIN", TypeFinAck: "FIN_ACK",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
}
