package pcap

import (
	"bufio"
	"io"
	"os"
)

// This file provides trace persistence: Wren's pre-online workflow
// analyzed traces offline ("earlier work described offline analysis
// techniques", paper section 1), and saved traces are also how the
// repository mode archives what forwarders ship. A trace file is the
// repository stream's encoding (codec.go): the preamble, then frames with
// an empty origin and trace context.

// WriteTrace streams records to w.
func WriteTrace(w io.Writer, records []Record) error {
	var enc Encoder
	enc.Preamble()
	for len(records) > 0 {
		n, err := enc.Frame("", "", records)
		if err != nil {
			return err
		}
		records = records[n:]
	}
	_, err := w.Write(enc.Bytes())
	return err
}

// ReadTrace reads all records from r.
func ReadTrace(r io.Reader) ([]Record, error) {
	dec := NewDecoder(bufio.NewReader(r))
	var out []Record
	for {
		f, err := dec.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, f.Records...)
	}
}

// SaveTrace writes records to a file.
func SaveTrace(path string, records []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteTrace(f, records); err != nil {
		return err
	}
	return f.Sync()
}

// LoadTrace reads a trace file.
func LoadTrace(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}
