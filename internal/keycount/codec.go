package keycount

import (
	"megaphone/internal/binenc"
)

// Binary migration encodings (core.BinaryState) for the key-count state
// types, used by core.TransferBinary. Neither variant schedules post-dated
// records, so no core.BinaryRec implementation is needed for the uint64
// record type: pending lists are always empty at migration time.

// AppendBinaryState implements core.BinaryState: count of entries, then
// varint key/count pairs (keys within a bin share their high bits, so
// varints stay short only for small domains — the map layout dominates
// either way).
func (s *HashState) AppendBinaryState(buf []byte) []byte {
	buf = binenc.AppendUvarint(buf, uint64(len(s.M)))
	for k, v := range s.M {
		buf = binenc.AppendU64(buf, k)
		buf = binenc.AppendUvarint(buf, v)
	}
	return buf
}

// DecodeBinaryState implements core.BinaryState.
func (s *HashState) DecodeBinaryState(data []byte) ([]byte, error) {
	n, data, err := binenc.Count(data, 9) // fixed 8-byte key + >= 1-byte count
	if err != nil {
		return nil, err
	}
	s.M = make(map[uint64]uint64, n)
	for i := uint64(0); i < n; i++ {
		var k, v uint64
		if k, data, err = binenc.U64(data); err != nil {
			return nil, err
		}
		if v, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		s.M[k] = v
	}
	return data, nil
}

// AppendBinaryState implements core.BinaryState: the dense count array as
// length-prefixed fixed-width values.
func (s *ArrayState) AppendBinaryState(buf []byte) []byte {
	return binenc.AppendU64s(buf, s.Counts)
}

// DecodeBinaryState implements core.BinaryState. It decodes into the
// Counts slice NewState already allocated when that is large enough, so an
// installed bin costs one array, not two.
func (s *ArrayState) DecodeBinaryState(data []byte) ([]byte, error) {
	counts, data, err := binenc.U64sInto(s.Counts, data)
	if err != nil {
		return nil, err
	}
	s.Counts = counts
	return data, nil
}
