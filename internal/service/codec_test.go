package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// testCodecs are the splittings every codec result must not depend on: one
// goroutine, two, and seven with every array cut as finely as it goes.
var testCodecs = []codec{
	{workers: 1, minSpan: 64 << 10, chunk: 8 << 10},
	{workers: 2, minSpan: 1, chunk: 1},
	{workers: 7, minSpan: 1, chunk: 3},
}

// refDecode is the decoder the handler used before the direct codec.
func refDecode(body []byte) (*RunRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	req := new(RunRequest)
	err := dec.Decode(req)
	return req, err
}

// checkDecode holds the direct decoder to encoding/json on one body: the
// same verdict, and on acceptance the same request down to the sign of a
// zero. The one tightening allowed is a null element of an input array.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, werr := refDecode(body)
	for _, cd := range testCodecs {
		got, gerr := cd.decodeRequest(body)
		if gerr != nil {
			if werr == nil && !strings.Contains(gerr.Error(), "null is not a number") {
				t.Fatalf("%+v: direct decoder rejects what encoding/json accepts: %v\nbody: %q", cd, gerr, body)
			}
			continue
		}
		if werr != nil {
			t.Fatalf("%+v: direct decoder accepts what encoding/json rejects (%v)\nbody: %q", cd, werr, body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: requests differ\ndirect: %+v\n  json: %+v\nbody: %q", cd, got, want, body)
		}
		for name, data := range want.Inputs {
			for i, v := range data {
				if math.Float32bits(got.Inputs[name][i]) != math.Float32bits(v) {
					t.Fatalf("%+v: input %q[%d]: direct %v, encoding/json %v\nbody: %q", cd, name, i, got.Inputs[name][i], v, body)
				}
			}
		}
	}
}

var decodeSeeds = []string{
	`{"app":"harris","params":{"R":2,"C":2},"inputs":{"img":[1,2,3,4]},"output":"data"}`,
	" \t\r\n{ \"app\" : \"x\" , \"inputs\" : { \"a\" : [ 1 , 2.5 ,\n-3e2 ] , \"b\" : [ ] } } ",
	`{"inputs":{"a":[1e5,1E+5,1e-5,0.5,-0,0,-0.0,1e-50,16777217,0.1,3.4028235e38]}}`,
	`{"inputs":{"a":[1e40]}}`,
	`{"inputs":{"a":[-1e40,1]}}`,
	`{"inputs":{"a":[1,2],"a":[3]},"inputs":{"b":[4]},"app":"p","app":"q"}`,
	`{"inputs":{"a":[1]},"inputs":null}`,
	`{"inputs":null,"app":"x"}`,
	`{"inputs":{"a":null,"b":[1]}}`,
	`{"inputs":{}}`,
	`{"INPUTS":{"a":[1]},"Inputs":{"b":[2]},"inp\u0075ts":{"c":[3]},"input\u017f":{"d":[4]}}`,
	`{"inputs":{"a\"\\\u00e9\ud83d\ude00":[1],"\ud800":[2],"` + "\xff" + `":[3]}}`,
	`{"inputs":{"a":[1,null,2]}}`,
	`{"inputs":{"a":[null]}}`,
	`{"inputs":{"a":[1,[2],3]}}`,
	`{"inputs":{"a":[1,"]",3]}}`,
	`{"inputs":{"a":[1,{"b":2}]}}`,
	`{"inputs":{"a":[1,true]}}`,
	`{"inputs":{"a":[1,,2]}}`,
	`{"inputs":{"a":[1,2,]}}`,
	`{"inputs":{"a":[,1]}}`,
	`{"inputs":{"a":[1 2]}}`,
	`{"inputs":{"a":[01]}}`,
	`{"inputs":{"a":[.5]}}`,
	`{"inputs":{"a":[1.]}}`,
	`{"inputs":{"a":[+1]}}`,
	`{"inputs":{"a":[1e]}}`,
	`{"inputs":{"a":[-]}}`,
	`{"inputs":{"a":[0x10]}}`,
	`{"inputs":{"a":[1_000]}}`,
	`{"inputs":{"a":[Inf]}}`,
	`{"inputs":{"a":[NaN]}}`,
	`{"inputs":{"a":5}}`,
	`{"inputs":{"a":"x"}}`,
	`{"inputs":{"a":{"b":[1]}}}`,
	`{"inputs":[1,2]}`,
	`{"inputs":7}`,
	`{"inputs":"x"}`,
	`{"inputs":nullx}`,
	`{"inputs":{"a":[1]},}`,
	`{"inputs":{"a":[1],}}`,
	`{"inputs":{"a" [1]}}`,
	`{"inputs":{"a":[1]}`,
	`{"inputs":{"a":[1,2`,
	`{"inputs":{"a":[1,2]`,
	`{"inputs":{"a`,
	`{"inputs"`,
	`{"inputs":`,
	`{`,
	``,
	`null`,
	`[]`,
	`7`,
	`"inputs"`,
	`not json{`,
	`{"nope":1}`,
	`{"nope":{"inputs":{"a":[1]}},"inputs":{"a":[2]}}`,
	`{"spec":{"Seed":5,"Rank":1,"N":64,"Stages":[{"Kind":1,"P":-1}]},"inputs":{"I":[1,2,3]},"tiles":[16,16],"roi":[[1,2],[3,4]],"fast":false}`,
	`{"spec":{"Stages":[{"Kind":"inputs"}]},"inputs":{"a":[1]}}`,
	`{"app":"a\"inputs\":{","inputs":{"a":[1]}}`,
	`{"app":"x","seed":1.5,"inputs":{"a":[1]}}`,
	`{"app":"x","inputs":{"a":[1]}} trailing garbage {"inputs":`,
	`{"app":"x","inputs":{"a":[1]}}{"inputs":{"a":[2]}}`,
	`{"a":[ "inputs": [1] }`,
	`{"app":tru"inputs":{"a":[1]}}`,
	`{"app":"x" "inputs":{"a":[1]}}`,
	`{"app":"x",,"inputs":{"a":[1]}}`,
	`{"app":"\q","inputs":{"a":[1]}}`,
	"{\"app\":\"a\nb\",\"inputs\":{\"a\":[1]}}",
	"{\"inputs\":{\"a\nb\":[1]}}",
	`{"inputs":{"a":[1]},"params":{"R":[}}`,
	`{"params":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
}

func TestRunRequestDecodeSeeds(t *testing.T) {
	for _, s := range decodeSeeds {
		checkDecode(t, []byte(s))
	}
	// Arrays whose element count sits around the number of parts.
	for n := 0; n <= 15; n++ {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprint(float32(i) / 3)
		}
		checkDecode(t, []byte(`{"inputs":{"a":[`+strings.Join(vals, ",")+`]}}`))
		checkDecode(t, []byte(`{"inputs":{"a":[ `+strings.Join(vals, " ,\n")+` ]}}`))
	}
}

// TestDecodeErrorNamesElement: a bad element is reported by input name and
// index whichever part of the array it fell into.
func TestDecodeErrorNamesElement(t *testing.T) {
	vals := make([]string, 100)
	for i := range vals {
		vals[i] = "1"
	}
	for _, bad := range []int{0, 37, 99} {
		v := append([]string(nil), vals...)
		v[bad] = "1e40"
		body := []byte(`{"inputs":{"img":[` + strings.Join(v, ",") + `]}}`)
		for _, cd := range testCodecs {
			_, err := cd.decodeRequest(body)
			if want := fmt.Sprintf(`input "img"[%d]`, bad); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%+v: error %v, want it to name %s", cd, err, want)
			}
		}
	}
}

func FuzzRunRequestDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// refLine is the encoder the handler used before the direct codec.
func refLine(t *testing.T, v any) []byte {
	t.Helper()
	line, err := encodeLine(v)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// checkDataEncode holds writeFloats to json.Marshal on one finite array.
func checkDataEncode(t *testing.T, data []float32) {
	t.Helper()
	want, err := json.Marshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, cd := range testCodecs {
		var got bytes.Buffer
		got.WriteByte('[')
		if err := cd.writeFloats(&got, data); err != nil {
			t.Fatal(err)
		}
		got.WriteByte(']')
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%+v: direct %s\nencoding/json %s", cd, got.Bytes(), want)
		}
	}
}

// finiteFloats reads raw as float32 bit patterns, dropping NaN and the
// infinities (the handler answers those with a 422 before encoding).
func finiteFloats(raw []byte) []float32 {
	data := make([]float32, 0, len(raw)/4)
	for ; len(raw) >= 4; raw = raw[4:] {
		if v := math.Float32frombits(binary.LittleEndian.Uint32(raw)); v-v == 0 {
			data = append(data, v)
		}
	}
	return data
}

var encodeSeeds = [][]float32{
	{},
	{0},
	{float32(math.Copysign(0, -1)), 1, -1, 0.1, 1.0 / 3, 16777216, 16777217},
	{1e-6, 9.999999e-7, 1e-7, 1e-9, 1e-10, 1e20, 9.999999e20, 1e21, 1e22, 3.4028235e38, -3.4028235e38},
	{math.SmallestNonzeroFloat32, 1.1754944e-38, 1e-38, -1e-45, 123456.79, 1.5e-5},
}

func TestDataEncodeSeeds(t *testing.T) {
	for _, data := range encodeSeeds {
		checkDataEncode(t, data)
	}
	// Lengths around a chunk and around workers × chunk at the default grain.
	grain := defaultCodec().chunk
	for _, n := range []int{grain - 1, grain, grain + 1, 2*grain - 1, 7*grain + 5, 15 * grain} {
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(i%1000)/7 - 50
		}
		want, _ := json.Marshal(data)
		for _, workers := range []int{1, 2, 7} {
			cd := codec{workers: workers, chunk: grain}
			var got bytes.Buffer
			got.WriteByte('[')
			if err := cd.writeFloats(&got, data); err != nil {
				t.Fatal(err)
			}
			got.WriteByte(']')
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%d elements, %d workers: bytes differ from json.Marshal", n, workers)
			}
		}
	}
}

func FuzzDataEncode(f *testing.F) {
	for _, data := range encodeSeeds {
		raw := make([]byte, 0, 4*len(data))
		for _, v := range data {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDataEncode(t, finiteFloats(raw))
	})
}

// TestWriteResultMatchesJSON: a whole response or frame line, data spliced
// into its envelope, is what encoding/json prints for the value — with
// output names that need escaping, outputs without data, and none at all.
func TestWriteResultMatchesJSON(t *testing.T) {
	outputs := map[string]OutputResult{
		"plain":           {Box: [][2]int64{{0, 1}, {0, 2}}, Checksum: "00ff", Data: []float32{1, 2.5, -3, 1e-7, 1e21, 0}},
		`quo"te\<tag>&é😀`: {Box: [][2]int64{{0, 0}}, Data: []float32{7}},
		"outputs":         {Box: [][2]int64{{3, 4}}, Checksum: `"data":[`, Data: []float32{8, 9}},
		"bare":            {Box: [][2]int64{{5, 6}}, Checksum: "abc"},
		"":                {Box: [][2]int64{}, Data: []float32{}},
	}
	for _, outs := range []map[string]OutputResult{outputs, {"one": outputs["plain"]}, {"bare": outputs["bare"]}, {}, nil} {
		resp := &RunResponse{Pipeline: `spec:<a&b>"outputs":{`, Key: "k", RunMillis: 1.25, Outputs: outs, AutoScheduled: true, ScheduleDigest: "d"}
		frame := &FrameResult{Frame: 2, RunMillis: 0.5, TilesSkipped: 3, Pipeline: "p", Outputs: outs}
		renv, fenv := *resp, *frame
		renv.Outputs, fenv.Outputs = withoutData(outs), withoutData(outs)
		for _, tc := range []struct{ full, envelope any }{{resp, &renv}, {frame, &fenv}} {
			want := refLine(t, tc.full)
			for _, cd := range testCodecs {
				var got bytes.Buffer
				n, err := cd.writeResult(&got, refLine(t, tc.envelope), outs)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("%+v:\ndirect %s\n  json %s", cd, got.Bytes(), want)
				}
				if n != int64(len(want)) {
					t.Errorf("%+v: reported %d bytes, wrote %d", cd, n, len(want))
				}
			}
		}
	}
}

// failAfter fails every write after the first n bytes.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, fmt.Errorf("client gone")
	}
	return len(p), nil
}

// TestWriteFloatsStopsOnError: a failed write ends the encode with that
// error and leaves no formatter behind (the race detector and the test
// binary's goroutine dump at timeout would show one).
func TestWriteFloatsStopsOnError(t *testing.T) {
	data := make([]float32, 1000)
	for _, cd := range testCodecs {
		if err := cd.writeFloats(&failAfter{n: 100}, data); err == nil {
			t.Errorf("%+v: write error lost", cd)
		}
	}
}

func TestNonFinite(t *testing.T) {
	inf := float32(math.Inf(1))
	for _, v := range []float32{inf, -inf, float32(math.NaN())} {
		e := nonFinite(map[string]OutputResult{"a": {Data: []float32{1, 2}}, "b": {Data: []float32{0, v}}})
		if e == nil || e.Status != 422 || !strings.Contains(e.Msg, `"b"[1]`) {
			t.Errorf("%v: got %+v, want a 422 naming \"b\"[1]", v, e)
		}
	}
	if e := nonFinite(map[string]OutputResult{"a": {Data: []float32{0, 3.4028235e38, -1e-45}}}); e != nil {
		t.Errorf("finite data rejected: %v", e)
	}
}

// benchPixels is a body of pixels-workload size: one 1.4 M-element image.
func benchPixels(b *testing.B) ([]float32, []byte) {
	b.Helper()
	data := make([]float32, 1400000)
	seed := uint32(1)
	for i := range data {
		seed = seed*1664525 + 1013904223
		data[i] = float32(seed>>8) / (1 << 24)
	}
	body, err := json.Marshal(&RunRequest{App: "unsharp", Output: OutputData, Inputs: map[string][]float32{"img": data}})
	if err != nil {
		b.Fatal(err)
	}
	return data, body
}

// BenchmarkDecode times a pixel-carrying /run body through the direct
// decoder at the default splitting, on one goroutine, and through
// encoding/json as the handler used it.
func BenchmarkDecode(b *testing.B) {
	_, body := benchPixels(b)
	one := defaultCodec()
	one.workers = 1
	for _, bc := range []struct {
		name   string
		decode func([]byte) (*RunRequest, error)
	}{{"direct", defaultCodec().decodeRequest}, {"direct-1", one.decodeRequest}, {"json", refDecode}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := bc.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncode is BenchmarkDecode's twin for a response.
func BenchmarkEncode(b *testing.B) {
	data, _ := benchPixels(b)
	resp := &RunResponse{Pipeline: "unsharp", Outputs: map[string]OutputResult{"mask": {Box: [][2]int64{{0, 999}, {0, 1399}}, Data: data}}}
	envelope := *resp
	envelope.Outputs = withoutData(resp.Outputs)
	one := defaultCodec()
	one.workers = 1
	direct := func(cd codec) func() (int, error) {
		return func() (int, error) {
			line, err := encodeLine(&envelope)
			if err != nil {
				return 0, err
			}
			n, err := cd.writeResult(io.Discard, line, resp.Outputs)
			return int(n), err
		}
	}
	for _, bc := range []struct {
		name   string
		encode func() (int, error)
	}{{"direct", direct(defaultCodec())}, {"direct-1", direct(one)}, {"json", func() (int, error) {
		line, err := encodeLine(resp)
		return len(line), err
	}}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, err := bc.encode()
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(n))
			}
		})
	}
}
