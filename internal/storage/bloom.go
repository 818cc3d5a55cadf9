package storage

import "encoding/binary"

// Bloom filter over keys, one per on-disk component that is point-read
// (AsterixDB attaches a bloom filter to every LSM component so point
// lookups can skip components that cannot contain the key). Row trees
// are the secondary indexes, which are only ever read by range, and
// write none.

// bloomBitsPerKey controls the false-positive rate; 10 bits/key gives
// roughly 1% false positives with 7 hash functions.
const (
	bloomBitsPerKey = 10
	bloomHashes     = 7
)

// Bloom is an immutable bloom filter.
type Bloom struct {
	bits []byte
	k    uint32
}

// NewBloomBuilder sizes a filter for the expected number of keys.
func NewBloomBuilder(expectedKeys int) *Bloom {
	if expectedKeys < 1 {
		expectedKeys = 1
	}
	nbits := expectedKeys * bloomBitsPerKey
	nbytes := (nbits + 7) / 8
	return &Bloom{bits: make([]byte, nbytes), k: bloomHashes}
}

// Add inserts a key into the filter.
func (b *Bloom) Add(key []byte) { b.addHash(bloomHash(key)) }

// addHash inserts a key by its two bloomHash values.
func (b *Bloom) addHash(h1, h2 uint64) {
	n := uint64(len(b.bits)) * 8
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % n
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

// bloomFromHashes builds the filter of the keys whose bloomHash values
// hashes holds, two per key: what the columnar writer keeps per key
// instead of a copy of it.
func bloomFromHashes(hashes []uint64) *Bloom {
	b := NewBloomBuilder(len(hashes) / 2)
	for i := 0; i+1 < len(hashes); i += 2 {
		b.addHash(hashes[i], hashes[i+1])
	}
	return b
}

// MayContain reports whether the key may be present (no false negatives).
// A nil filter, a component's that was written without one, may hold
// every key.
func (b *Bloom) MayContain(key []byte) bool {
	if b == nil {
		return true
	}
	h1, h2 := bloomHash(key)
	n := uint64(len(b.bits)) * 8
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % n
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// SizeBytes returns the serialized size of the filter.
func (b *Bloom) SizeBytes() int { return 8 + len(b.bits) }

// marshal appends the filter's serialized form to dst.
func (b *Bloom) marshal(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, b.k)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.bits)))
	return append(dst, b.bits...)
}

// noBloom is the filter section of a component written without a
// filter, as the row writer writes every one: a header of no hash
// functions and no bits.
var noBloom = make([]byte, 8)

// unmarshalBloom decodes a filter serialized by marshal; the noBloom
// header decodes to the nil filter.
func unmarshalBloom(buf []byte) (*Bloom, error) {
	if len(buf) < 8 {
		return nil, errCorrupt("bloom header")
	}
	k := binary.LittleEndian.Uint32(buf)
	n := binary.LittleEndian.Uint32(buf[4:])
	if k == 0 && n == 0 {
		return nil, nil
	}
	// Writers size a filter for at least one key, two bytes; a shorter one
	// would answer "absent" for every key and silently fail point reads.
	if uint32(len(buf)-8) < n || n < 2 {
		return nil, errCorrupt("bloom bits")
	}
	// Writers always store bloomHashes; a damaged count would otherwise
	// be taken at its word and make every lookup loop up to 2^32 times.
	if k > 4*bloomHashes {
		return nil, errCorrupt("bloom hash count")
	}
	bits := make([]byte, n)
	copy(bits, buf[8:8+n])
	return &Bloom{bits: bits, k: k}, nil
}

// bloomHash derives two independent 64-bit hashes (FNV-1a variants) for
// double hashing.
func bloomHash(key []byte) (uint64, uint64) {
	const (
		off1  uint64 = 14695981039346656037
		off2  uint64 = 0x9E3779B97F4A7C15
		prime uint64 = 1099511628211
	)
	h1, h2 := off1, off2
	for _, c := range key {
		h1 = (h1 ^ uint64(c)) * prime
		h2 = (h2 + uint64(c)) * prime
		h2 ^= h2 >> 29
	}
	if h2%2 == 0 { // keep the stride odd so it cycles all bits
		h2++
	}
	return h1, h2
}
