package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// payloadKinds is the kind table the walker test ranges over: for every
// payload kind byte, the zero value of the type that kind decodes to — a
// pointer for every struct kind. The two reserved kinds are refused like
// any kind past the table's end.
var payloadKinds = []any{
	pNil:         nil,
	pFloat64s:    []float64(nil),
	pDiffRequest: (*DiffRequest)(nil),
	pDiffReply:   (*DiffReply)(nil),
	pGrant:       (*Grant)(nil),
	5:            reserved{},
	pDepart:      (*Depart)(nil),
	pPush:        (*Push)(nil),
	8:            reserved{},
	pStart:       (*Start)(nil),
	pDone:        (*Done)(nil),
	pUpdate:      (*Update)(nil),
	pCheckpoint:  (*Checkpoint)(nil),
	pJobSpec:     (*JobSpec)(nil),
	pJobDecision: (*JobDecision)(nil),
	pJobResult:   (*JobResult)(nil),
}

// reserved marks a kind byte no payload type has.
type reserved struct{}

// payloadKindAt is the offset of the payload kind byte in an encoded
// frame: len(4) version(1) kind(1) from(4) to(4) tag(4) bytes(4) time(8).
const payloadKindAt = 30

// fill sets every field reachable from v to a distinct non-zero value:
// scalars count upwards (so every int32 list is sorted and duplicate-free,
// the page-set invariant), slices get three elements — for a page set,
// one run of three, which is span mode.
func fill(v reflect.Value, n *int64) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int32, reflect.Int64:
		v.SetInt(*n)
	case reflect.Uint8:
		v.SetUint(uint64(*n%255) + 1)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n)
		}
	default:
		panic(fmt.Sprintf("fill: a wire value holds a %s; teach the test and the coder about it", v.Kind()))
	}
}

// TestWalkersRoundTripEveryPayload is the one-walker contract: for every
// payload kind the decoder knows, a value with every field set — built by
// reflection, so a field added to a type without a line in its walker
// comes back zero — encodes under its kind byte, decodes equal, and
// re-encodes to the same bytes, and a struct kind decodes to a pointer.
// The kind table must cover the decoder: a kind added without a table
// entry, or a reserved one decoded, fails the probe below.
func TestWalkersRoundTripEveryPayload(t *testing.T) {
	probe, err := AppendFrame(nil, &Frame{Kind: FMsg})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 256; k++ {
		probe[payloadKindAt] = byte(k)
		_, _, err := ParseFrame(probe)
		unknown := err != nil && strings.Contains(err.Error(), "unknown payload kind")
		if known := k < len(payloadKinds) && payloadKinds[k] != (reserved{}); known == unknown {
			t.Fatalf("payload kind %d: decoder says %v, the test's kind table has %d kinds", k, err, len(payloadKinds))
		}
	}
	var n int64
	for k, zero := range payloadKinds {
		if zero == nil || zero == (reserved{}) {
			continue
		}
		v := reflect.New(reflect.TypeOf(zero)).Elem()
		if v.Kind() == reflect.Pointer {
			v = reflect.New(v.Type().Elem())
			fill(v.Elem(), &n)
		} else {
			fill(v, &n)
		}
		f := &Frame{Kind: FMsg, From: 1, To: 2, Tag: 3, Bytes: 4, Time: 5, Payload: v.Interface()}
		b, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatalf("%T: encode: %v", zero, err)
		}
		if b[payloadKindAt] != byte(k) {
			t.Fatalf("%T: encoded under kind %d, table says %d", zero, b[payloadKindAt], k)
		}
		got, m, err := ParseFrame(b)
		if err != nil || m != len(b) {
			t.Fatalf("%T: decode consumed %d of %d bytes: %v", zero, m, len(b), err)
		}
		if reflect.TypeOf(got.Payload).Kind() == reflect.Struct {
			t.Fatalf("%T: decoded by value, not as a pointer", got.Payload)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("%T: a field is missing from the walker:\n got %+v\nwant %+v", zero, got.Payload, f.Payload)
		}
		if again, err := AppendFrame(nil, got); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("%T: re-encoding the decoded value differs (err %v)", zero, err)
		}
	}
}
