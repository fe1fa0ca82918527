package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"

	"specsimp/internal/system"
)

// resultsDigest hashes a canonical encoding of every system.Results
// field: fields in declaration order under their names, maps in sorted
// key order, floats by bit pattern. Two runs have equal digests exactly
// when every simulated statistic they report is identical.
func resultsDigest(r system.Results) string {
	h := sha256.New()
	encodeValue(h, reflect.ValueOf(r))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func encodeValue(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	str := func(s string) {
		word(uint64(len(s)))
		h.Write([]byte(s))
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			word(1)
		} else {
			word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		word(v.Uint())
	case reflect.Float32, reflect.Float64:
		word(math.Float64bits(v.Float()))
	case reflect.String:
		str(v.String())
	case reflect.Slice, reflect.Array:
		word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			encodeValue(h, v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		word(uint64(len(keys)))
		for _, k := range keys {
			encodeValue(h, k)
			encodeValue(h, v.MapIndex(k))
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			str(t.Field(i).Name)
			encodeValue(h, v.Field(i))
		}
	default:
		// Results holds plain data; a pointer, interface or func field
		// would make the digest depend on identity, not value.
		panic(fmt.Sprintf("perfbench: cannot digest a %s", v.Kind()))
	}
}

// treeDigest hashes every regular file under dir — relative path and
// contents, in sorted path order — except the files named in skip.
func treeDigest(dir string, skip ...string) (string, error) {
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() && !slices.Contains(skip, d.Name()) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("digest %s: %w", dir, err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return "", fmt.Errorf("digest %s: %w", dir, err)
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return "", fmt.Errorf("digest %s: %w", dir, err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}
