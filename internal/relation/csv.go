package relation

import (
	"encoding/csv"
	"io"
)

// WriteCSV writes the relation with a header row, tuples in Sorted
// order. Integer values are written in decimal; strings verbatim; nulls
// as empty fields. CSV cannot tell 5 from "5", or "" from null, so no
// state is stored in it (state files are statement scripts); its one
// caller is the benchmark's disk-amplification figure, which divides a
// durable directory's bytes by the live data's CSV bytes.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Attrs); err != nil {
		return err
	}
	row := make([]string, r.Arity())
	for _, t := range r.Sorted() {
		for i, v := range t {
			if v.IsNull() {
				row[i] = ""
			} else {
				row[i] = v.String()
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
