package perf

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Manifest is a document's integrity seal: the digest is the SHA-256 of
// the canonical JSON encoding of the document with the manifest field
// absent.
type Manifest struct {
	Algorithm string `json:"algorithm"`
	Digest    string `json:"digest"`
}

// Seal clears *manifest, hashes the canonical encoding of doc, and
// installs the resulting manifest. doc must be the struct that holds
// manifest (marshalled with `json:"manifest,omitempty"`), already sorted
// into its canonical order.
func Seal(doc any, manifest **Manifest) error {
	*manifest = nil
	canon, err := CanonicalMarshal(doc)
	if err != nil {
		return fmt.Errorf("perf: seal: %w", err)
	}
	sum := sha256.Sum256(canon)
	*manifest = &Manifest{Algorithm: "sha256", Digest: hex.EncodeToString(sum[:])}
	return nil
}

// Write writes doc as canonical JSON followed by a newline (the one
// concession to text tooling; the newline is not covered by the digest,
// and readers accept it).
func Write(w io.Writer, doc any) error {
	canon, err := CanonicalMarshal(doc)
	if err != nil {
		return err
	}
	_, err = w.Write(append(canon, '\n'))
	return err
}

// WriteFile writes doc with Write to path ("-" for stdout).
func WriteFile(path string, doc any) error {
	if path == "-" {
		return Write(os.Stdout, doc)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Verify checks the self-manifest of a serialized document: the document
// minus its manifest field, canonicalized, must hash to the manifest
// digest, and nothing but JSON whitespace may follow the document. A
// document without a manifest fails (unsealed artifacts carry no integrity
// claim), as does any edit after sealing — a single timing digit, or bytes
// appended after the closing brace. Malformed JSON is ExitInvalid; every
// other failure is ExitVerification.
func Verify(raw []byte) error {
	doc, rest, err := decodeObject(raw)
	if err != nil {
		return err
	}
	return verifyObject(doc, rest)
}

// Decode reads a sealed document of the given schema and version into a
// new T: the header must name the schema and version (ExitInvalid
// otherwise), the seal must verify as in Verify (ExitVerification), and
// the document must then unmarshal into T (ExitInvalid).
func Decode[T any](raw []byte, schema string, version int) (*T, error) {
	doc, rest, err := decodeObject(raw)
	if err != nil {
		return nil, err
	}
	if got, _ := doc["schema"].(string); got != schema {
		return nil, Invalidf("perf: not a %s document (schema %q)", schema, got)
	}
	if got, _ := doc["version"].(json.Number); got.String() != fmt.Sprint(version) {
		return nil, Invalidf("perf: unsupported %s version %q (reader supports %d)", schema, got, version)
	}
	if err := verifyObject(doc, rest); err != nil {
		return nil, err
	}
	out := new(T)
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, Exit(ExitInvalid, fmt.Errorf("perf: parse %s: %w", schema, err))
	}
	return out, nil
}

// DecodeFile reads path and decodes it with Decode.
func DecodeFile[T any](path, schema string, version int) (*T, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, Exit(ExitInvalid, fmt.Errorf("perf: %w", err))
	}
	out, err := Decode[T](raw, schema, version)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// decodeObject parses the first JSON value of raw as an object, keeping
// number literals verbatim, and returns it with the bytes that follow it.
func decodeObject(raw []byte) (doc map[string]any, rest []byte, err error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		return nil, nil, Exit(ExitInvalid, fmt.Errorf("perf: parse document: %w", err))
	}
	if doc == nil {
		return nil, nil, Invalidf("perf: parse document: not a JSON object")
	}
	return doc, raw[dec.InputOffset():], nil
}

// verifyObject checks the seal of a decoded document; rest is whatever
// followed it in the serialized bytes.
func verifyObject(doc map[string]any, rest []byte) error {
	if !onlyWhitespace(rest) {
		return Exit(ExitVerification, errors.New("perf: content after the sealed document (edited after sealing)"))
	}
	m, ok := doc["manifest"].(map[string]any)
	if !ok {
		return Exit(ExitVerification, errors.New("perf: document has no manifest"))
	}
	algo, _ := m["algorithm"].(string)
	want, _ := m["digest"].(string)
	if algo != "sha256" || want == "" {
		return Exit(ExitVerification, fmt.Errorf("perf: unsupported manifest algorithm %q", algo))
	}
	delete(doc, "manifest")
	inner, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	canon, err := Canonicalize(inner)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(canon)
	if got := hex.EncodeToString(sum[:]); got != want {
		return Exit(ExitVerification, fmt.Errorf("perf: manifest digest mismatch: document hashes to %s, manifest claims %s", got, want))
	}
	return nil
}

// onlyWhitespace reports whether b holds nothing but JSON whitespace.
func onlyWhitespace(b []byte) bool {
	return len(bytes.TrimLeft(b, " \t\r\n")) == 0
}
