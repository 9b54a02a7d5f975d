package cdr

// An encapsulation is a self-contained CDR stream stored as an octet
// sequence, used wherever a blob must be decoded independently of its
// surrounding stream (service contexts, object reference profiles,
// checkpoint payloads and files, naming snapshots). CORBA encapsulations
// begin with a byte-order flag octet. This implementation writes only
// little-endian streams and keeps the flag so that a blob in the other
// order — one left by a build whose wire was big-endian — is refused
// rather than misread.

// encapFlagLittleEndian is the byte-order flag stored at offset 0 of every
// encapsulation (1 = little-endian in CDR).
const encapFlagLittleEndian = 1

// Encapsulate runs fill against a fresh Encoder and returns the resulting
// stream prefixed with the byte-order flag, ready for PutBytes.
func Encapsulate(fill func(*Encoder)) []byte {
	e := NewEncoder(64)
	e.PutOctet(encapFlagLittleEndian)
	fill(e)
	return e.Bytes()
}

// OpenEncapsulation validates the byte-order flag of an encapsulation and
// returns a Decoder positioned after it.
func OpenEncapsulation(data []byte) (*Decoder, error) {
	d := NewDecoder(data)
	flag := d.GetOctet()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if flag != encapFlagLittleEndian {
		return nil, ErrByteOrder
	}
	return d, nil
}

// ErrByteOrder is reported for encapsulations whose flag is not
// little-endian: big-endian ones, which this implementation does not
// produce or accept, and anything else.
var ErrByteOrder = errorString("cdr: unsupported big-endian encapsulation")

type errorString string

func (e errorString) Error() string { return string(e) }
