package runcache

import (
	"bytes"
	"testing"
)

// FuzzDecodeEntry fuzzes the entry-file decoder every Get runs on what
// it reads from disk: decodeEntry either rejects the bytes or returns a
// payload whose entry, laid out as put lays it out, is the input byte
// for byte. So the decoder accepts exactly the files the cache writes,
// and no corrupted variant of one is served.
func FuzzDecodeEntry(f *testing.F) {
	k := KeyOf("fuzz", "entry")
	entry := encodeEntry(k, []byte("payload bytes\nwith a newline"))
	f.Add(entry)
	f.Add(entry[:len(entry)/2])
	f.Add(encodeEntry(k, nil))
	f.Add(encodeEntry(KeyOf("fuzz", "other"), []byte("mis-keyed")))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := decodeEntry(k, data)
		if err != nil {
			return
		}
		if again := encodeEntry(k, payload); !bytes.Equal(again, data) {
			t.Fatalf("decodeEntry accepted a file put would not write:\n got: %q\nwant: %q", data, again)
		}
	})
}
