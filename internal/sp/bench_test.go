package sp

import (
	"testing"

	"specpersist/internal/isa"
)

func BenchmarkSSBMatchLoad(b *testing.B) {
	s := NewSSB(256)
	for i := 0; i < 200; i++ {
		s.Push(Entry{Op: isa.Store, Addr: uint64(0x1000 + i*8), Size: 8})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MatchLoad(uint64(0x1000+(i%300)*8), 8)
	}
}

func BenchmarkSSBPushPop(b *testing.B) {
	s := NewSSB(256)
	for i := 0; i < b.N; i++ {
		if !s.Push(Entry{Op: isa.Store, Addr: uint64(i * 8), Size: 8}) {
			s.Pop()
			s.Push(Entry{Op: isa.Store, Addr: uint64(i * 8), Size: 8})
		}
	}
}

func BenchmarkBloomAddQuery(b *testing.B) {
	f := NewBloom(512)
	for i := 0; i < b.N; i++ {
		a := uint64(i * 64)
		f.Add(a)
		f.MayContain(a + 64)
		if i%256 == 255 {
			f.Clear()
		}
	}
}

func BenchmarkBLTRecordConflict(b *testing.B) {
	t := NewBLT()
	for i := 0; i < b.N; i++ {
		a := uint64(i%1024) * 64
		t.Record(a)
		t.Conflicts(a + 32)
		if i%4096 == 4095 {
			t.Clear()
		}
	}
}
