// Package bootstrap implements BootOX [9], OPTIQUE's deployment-support
// component (challenge C1): it extracts an OWL 2 QL ontology and GAV
// mappings from relational and streaming schemas.
//
// Three bootstrappers are provided, mirroring the paper:
//   - the logical (direct) bootstrapper: tables become classes projected
//     on their primary keys, foreign keys (explicit or implicitly
//     discovered) become object properties, scalar columns become data
//     properties;
//   - the keyword-driven discovery of complex mappings (DISCOVER-style
//     [8]): users give example keyword sets for a class and the system
//     finds the queries that retrieve them;
//   - ontology alignment with a conservativity check that rejects
//     correspondences producing undesired logical consequences.
package bootstrap

import (
	"fmt"
	"strings"

	"repro/internal/obda/mapping"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// Column describes one column of a source table or stream.
type Column struct {
	Name string
	Type relation.Type
}

// FK is a foreign-key constraint.
type FK struct {
	Column    string // local column
	RefTable  string
	RefColumn string
}

// Table describes a relational table or stream to bootstrap from.
type Table struct {
	Name        string
	Columns     []Column
	PrimaryKey  string // single-column keys cover the Siemens schemas
	ForeignKeys []FK
	IsStream    bool
	TSCol       string // timestamp column of a stream (skipped as data property)
}

// Schema is a collection of tables under a namespace.
type Schema struct {
	BaseIRI string // e.g. "http://siemens.com/ontology#"
	DataIRI string // base for instance IRIs, e.g. "http://siemens.com/data/"
	Tables  []Table
}

// Validate checks structural requirements.
func (s Schema) Validate() error {
	if s.BaseIRI == "" || s.DataIRI == "" {
		return fmt.Errorf("bootstrap: BaseIRI and DataIRI are required")
	}
	seen := map[string]bool{}
	byName := map[string]*Table{}
	for i := range s.Tables {
		t := &s.Tables[i]
		if t.Name == "" {
			return fmt.Errorf("bootstrap: table without name")
		}
		key := strings.ToLower(t.Name)
		if seen[key] {
			return fmt.Errorf("bootstrap: duplicate table %q", t.Name)
		}
		seen[key] = true
		byName[key] = t
		if t.PrimaryKey == "" && !t.IsStream {
			return fmt.Errorf("bootstrap: table %q has no primary key", t.Name)
		}
		cols := map[string]bool{}
		for _, c := range t.Columns {
			cols[strings.ToLower(c.Name)] = true
		}
		if t.PrimaryKey != "" && !cols[strings.ToLower(t.PrimaryKey)] {
			return fmt.Errorf("bootstrap: table %q: primary key %q not a column", t.Name, t.PrimaryKey)
		}
		if t.IsStream && (t.TSCol == "" || !cols[strings.ToLower(t.TSCol)]) {
			return fmt.Errorf("bootstrap: stream %q needs a timestamp column", t.Name)
		}
	}
	for _, t := range s.Tables {
		for _, fk := range t.ForeignKeys {
			if byName[strings.ToLower(fk.RefTable)] == nil {
				return fmt.Errorf("bootstrap: table %q: FK references unknown table %q", t.Name, fk.RefTable)
			}
		}
	}
	return nil
}

// Result is the bootstrapped deployment assets.
type Result struct {
	TBox     *ontology.TBox
	Mappings *mapping.Set
	// Report lists human-readable decisions (one per asset), in order.
	Report []string
}

// Stats summarises a bootstrap run.
func (r *Result) Stats() (classes, objProps, dataProps, mappings int) {
	return len(r.TBox.Classes()), len(r.TBox.ObjectProperties()),
		len(r.TBox.DataProperties()), r.Mappings.Len()
}

// Direct runs the logical bootstrapper over the schema.
func Direct(s Schema) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	tbox := ontology.New()
	set, _ := mapping.NewSet()
	res := &Result{TBox: tbox, Mappings: set}

	byName := map[string]*Table{}
	for i := range s.Tables {
		byName[strings.ToLower(s.Tables[i].Name)] = &s.Tables[i]
	}

	// Pass 1: classes for every keyed table.
	classIRI := map[string]string{} // table -> class IRI
	for _, t := range s.Tables {
		if t.PrimaryKey == "" {
			continue
		}
		cls := s.BaseIRI + ClassName(t.Name)
		classIRI[strings.ToLower(t.Name)] = cls
		tbox.DeclareClass(cls)
		tbox.SetLabel(cls, humanLabel(t.Name))
		m := mapping.Mapping{
			ID:         "class:" + t.Name,
			Pred:       cls,
			IsClass:    true,
			Subject:    subjectTemplate(s, t),
			Source:     mapping.SourceRef{Table: t.Name, IsStream: t.IsStream},
			KeyColumns: []string{t.PrimaryKey},
		}
		if err := set.Add(m); err != nil {
			return nil, err
		}
		res.Report = append(res.Report, fmt.Sprintf("class %s <- table %s (pk %s)", ClassName(t.Name), t.Name, t.PrimaryKey))
	}

	// Pass 2: properties.
	for _, t := range s.Tables {
		fks := append([]FK{}, t.ForeignKeys...)
		fks = append(fks, implicitFKs(t, s.Tables)...)
		fkCols := map[string]FK{}
		for _, fk := range fks {
			fkCols[strings.ToLower(fk.Column)] = fk
		}
		subject := subjectTemplate(s, t)
		subjectKnown := t.PrimaryKey != "" || t.IsStream
		// A stream's subject key column (e.g. the sensor id on a
		// measurement stream) identifies the subject itself; it must not
		// also become a self-referencing object property.
		subjectKey := t.PrimaryKey
		if t.IsStream && len(subject.Columns) == 1 {
			subjectKey = subject.Columns[0]
		}

		for _, c := range t.Columns {
			lc := strings.ToLower(c.Name)
			if strings.EqualFold(c.Name, subjectKey) || strings.EqualFold(c.Name, t.TSCol) {
				continue
			}
			if fk, ok := fkCols[lc]; ok {
				// Object property to the referenced class.
				ref := byName[strings.ToLower(fk.RefTable)]
				refCls, hasRef := classIRI[strings.ToLower(fk.RefTable)]
				if !hasRef || !subjectKnown {
					continue
				}
				prop := s.BaseIRI + PropertyName(t.Name, c.Name)
				tbox.DeclareObjectProperty(prop)
				if cls, ok := classIRI[strings.ToLower(t.Name)]; ok {
					tbox.AddDomain(prop, ontology.Named(cls))
				}
				tbox.AddRange(prop, ontology.Named(refCls))
				m := mapping.Mapping{
					ID:         "objprop:" + t.Name + "." + c.Name,
					Pred:       prop,
					Subject:    subject,
					Object:     subjectTemplate(s, *ref),
					Source:     mapping.SourceRef{Table: t.Name, IsStream: t.IsStream},
					KeyColumns: keyCols(t),
				}
				// The object template must read the FK column of this table.
				m.Object = retarget(m.Object, ref.PrimaryKey, c.Name)
				if err := set.Add(m); err != nil {
					return nil, err
				}
				res.Report = append(res.Report, fmt.Sprintf("object property %s <- FK %s.%s -> %s.%s",
					PropertyName(t.Name, c.Name), t.Name, c.Name, fk.RefTable, fk.RefColumn))
				continue
			}
			if !subjectKnown {
				continue
			}
			// Data property.
			prop := s.BaseIRI + DataPropertyName(c.Name)
			tbox.DeclareDataProperty(prop)
			tbox.SetLabel(prop, humanLabel(c.Name))
			if cls, ok := classIRI[strings.ToLower(t.Name)]; ok {
				tbox.AddDomain(prop, ontology.Named(cls))
			}
			m := mapping.Mapping{
				ID:           "dataprop:" + t.Name + "." + c.Name,
				Pred:         prop,
				Subject:      subject,
				Object:       mapping.MustParseTemplate("{" + c.Name + "}"),
				ObjectIsData: true,
				Source:       mapping.SourceRef{Table: t.Name, IsStream: t.IsStream},
				KeyColumns:   keyCols(t),
			}
			if err := set.Add(m); err != nil {
				return nil, err
			}
			res.Report = append(res.Report, fmt.Sprintf("data property %s <- column %s.%s",
				DataPropertyName(c.Name), t.Name, c.Name))
		}
	}
	if err := tbox.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}

func keyCols(t Table) []string {
	if t.PrimaryKey == "" {
		return nil
	}
	return []string{t.PrimaryKey}
}

// subjectTemplate builds the instance IRI template of a table: streams
// without a primary key use their first FK-ish id column.
func subjectTemplate(s Schema, t Table) mapping.Template {
	key := t.PrimaryKey
	if key == "" {
		// Streams: use the first non-timestamp integer column as the
		// entity identifier (measurements identify their sensor).
		for _, c := range t.Columns {
			if !strings.EqualFold(c.Name, t.TSCol) && c.Type == relation.TInt {
				key = c.Name
				break
			}
		}
	}
	entity := singular(strings.ToLower(t.Name))
	if t.IsStream && key != "" {
		// Stream rows denote the entity their id column references: find
		// the table whose primary key the column names (implicit FK) so
		// stream subjects share the IRI scheme of that table's instances.
		entity = ""
		for _, other := range s.Tables {
			if other.IsStream || other.PrimaryKey == "" || strings.EqualFold(other.Name, t.Name) {
				continue
			}
			pk := strings.ToLower(other.PrimaryKey)
			lk := strings.ToLower(key)
			if lk == pk || lk == strings.ToLower(other.Name)+"_"+pk || lk == strings.ToLower(singular(other.Name))+"_"+pk {
				entity = singular(strings.ToLower(other.Name))
				break
			}
		}
		if entity == "" {
			entity = singular(strings.ToLower(t.Name))
		}
	}
	return mapping.MustParseTemplate(s.DataIRI + entity + "/{" + key + "}")
}

// retarget rewrites the single column of an object template.
func retarget(t mapping.Template, oldCol, newCol string) mapping.Template {
	out := t
	out.Columns = append([]string{}, t.Columns...)
	for i, c := range out.Columns {
		if strings.EqualFold(c, oldCol) {
			out.Columns[i] = newCol
		}
	}
	return out
}

// implicitFKs discovers unlisted foreign keys by the naming conventions
// the paper alludes to ("explicit or implicit foreign key"): a column
// whose name equals another table's primary key, or "<table>_<pk>".
func implicitFKs(t Table, all []Table) []FK {
	explicit := map[string]bool{}
	for _, fk := range t.ForeignKeys {
		explicit[strings.ToLower(fk.Column)] = true
	}
	var out []FK
	for _, c := range t.Columns {
		lc := strings.ToLower(c.Name)
		if explicit[lc] || strings.EqualFold(c.Name, t.PrimaryKey) {
			continue
		}
		for _, other := range all {
			if strings.EqualFold(other.Name, t.Name) || other.PrimaryKey == "" {
				continue
			}
			pk := strings.ToLower(other.PrimaryKey)
			if lc == pk || lc == strings.ToLower(other.Name)+"_"+pk || lc == strings.ToLower(singular(other.Name))+"_"+pk {
				out = append(out, FK{Column: c.Name, RefTable: other.Name, RefColumn: other.PrimaryKey})
				break
			}
		}
	}
	return out
}

// ---- naming helpers ----

// ClassName converts a table name to a class name: snake_case plural to
// CamelCase singular ("gas_turbines" -> "GasTurbine").
func ClassName(table string) string {
	parts := strings.Split(strings.ToLower(table), "_")
	for i, p := range parts {
		if i == len(parts)-1 {
			p = singular(p)
		}
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + p[1:]
	}
	return strings.Join(parts, "")
}

// PropertyName names an FK-derived object property ("sensors.aid" ->
// "sensorsAid" is ugly; use "has"+RefClass-ish based on column).
func PropertyName(table, column string) string {
	base := strings.ToLower(column)
	base = strings.TrimSuffix(base, "_id")
	base = strings.TrimSuffix(base, "id")
	if base == "" || base == "_" {
		base = strings.ToLower(singular(table)) + "Ref"
	}
	base = strings.Trim(base, "_")
	return "has" + strings.ToUpper(base[:1]) + base[1:]
}

// DataPropertyName names a column-derived data property
// ("serial_no" -> "hasSerialNo").
func DataPropertyName(column string) string {
	parts := strings.Split(strings.ToLower(column), "_")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + p[1:]
	}
	return "has" + strings.Join(parts, "")
}

func singular(s string) string {
	switch {
	case strings.HasSuffix(s, "ies"):
		return s[:len(s)-3] + "y"
	case strings.HasSuffix(s, "ses"):
		return s[:len(s)-2]
	case strings.HasSuffix(s, "s") && !strings.HasSuffix(s, "ss"):
		return s[:len(s)-1]
	default:
		return s
	}
}

func humanLabel(name string) string {
	return strings.ReplaceAll(strings.ToLower(name), "_", " ")
}
