// Prometheus text exposition (version 0.0.4) for the Registry, plus a
// strict linter for the produced format used by the CI smoke jobs.
//
// Metric names in the registry are free-form ("kv.gets"); the encoder
// sanitizes them to the Prometheus grammar ('.' and every other invalid
// rune become '_'). A name may carry a label suffix in curly braces —
// `http.requests{route="/kv/",method="GET"}` — which the encoder splits
// off and re-attaches verbatim, so one registry holds a whole labeled
// family as sibling entries and /metrics renders them under a single
// `# TYPE` line.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// promName splits a registry name into its sanitized Prometheus base name
// and the verbatim label block ("" when unlabeled).
func promName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base, labels = name[:i], name[i:]
		if !strings.HasSuffix(labels, "}") {
			// Malformed label suffix: treat the whole thing as a name.
			return sanitizeProm(name), ""
		}
		labels = labels[1 : len(labels)-1]
		return sanitizeProm(base), labels
	}
	return sanitizeProm(name), ""
}

// sanitizeProm maps an arbitrary string onto the Prometheus metric-name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeProm(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(s) + 1)
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if i == 0 && c >= '0' && c <= '9' {
			b.WriteByte('_')
			b.WriteByte(c)
			continue
		}
		if ok {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sanitizeLabelName maps an arbitrary string onto the Prometheus label-name
// grammar [a-zA-Z_][a-zA-Z0-9_]*.
func sanitizeLabelName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(s) + 1)
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if i == 0 && c >= '0' && c <= '9' {
			b.WriteByte('_')
			b.WriteByte(c)
			continue
		}
		if ok {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a raw label value per the exposition grammar:
// backslash, double quote and newline become \\, \" and \n.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// unescapeLabelValue reverses escapeLabelValue; an unknown escape keeps
// the escaped character verbatim (dropping the backslash), so that
// re-escaping an already-escaped value is idempotent instead of doubling.
func unescapeLabelValue(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			default: // covers \\ and \" and anything invalid
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(c)
	}
	return b.String()
}

// Label renders one label pair `name="value"` with the name sanitized and
// the value escaped for the exposition format. Use it when minting labeled
// registry names from runtime strings — peer addresses like
// `127.0.0.1:8081`, file paths, error text — so no value can break the
// /metrics page out of the grammar.
func Label(name, value string) string {
	return sanitizeLabelName(name) + `="` + escapeLabelValue(value) + `"`
}

// normalizeLabels re-renders a raw label block so the emitted exposition
// is always well-formed: every label name is forced onto the label-name
// grammar and every value is (re-)escaped. Already-valid blocks come back
// byte-identical; a value minted without Label — say a peer address
// carrying a quote or a newline — is repaired rather than emitted broken.
func normalizeLabels(block string) string {
	if block == "" {
		return ""
	}
	parts := splitPromLabels(block)
	var b strings.Builder
	b.Grow(len(block) + 8)
	for i, lab := range parts {
		if i > 0 {
			b.WriteByte(',')
		}
		eq := strings.IndexByte(lab, '=')
		if eq < 0 {
			// No '=': treat the whole fragment as a name with an empty value.
			b.WriteString(sanitizeLabelName(lab))
			b.WriteString(`=""`)
			continue
		}
		name, val := lab[:eq], lab[eq+1:]
		if len(val) >= 2 && val[0] == '"' && val[len(val)-1] == '"' {
			val = val[1 : len(val)-1]
		}
		b.WriteString(Label(name, unescapeLabelValue(val)))
	}
	return b.String()
}

// promFloat renders a float the way Prometheus expects.
func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// withLabel appends one more label to a (possibly empty) label block.
func withLabel(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return "{" + labels + "," + extra + "}"
}

// bucketLE is the inclusive upper bound of log2 bucket k as Prometheus
// `le` text: bucket k holds values v with bits.Len64(v) == k, i.e.
// v <= 2^k - 1, so the cumulative count through bucket k is exactly the
// count of observations <= 2^k - 1.
func bucketLE(k int) string {
	if k >= 64 {
		return strconv.FormatUint(math.MaxUint64, 10)
	}
	return strconv.FormatUint(uint64(1)<<uint(k)-1, 10)
}

// WriteProm renders Snapshot in Prometheus text format: one `# TYPE`
// line per family, then the family's series sorted by label block. The
// family's kind is the snapshot value's type: a uint64 is a counter, a
// float64 a gauge, and a histogram entry a histogram, which expands into
// cumulative `_bucket{le="..."}` lines at the log2 boundaries (2^k - 1), a
// `le="+Inf"` bucket, `_sum` and `_count` (equal to the +Inf bucket). A nil
// registry writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	type series struct {
		labels string
		v      any
	}
	type family struct {
		kind   string // "counter" | "gauge" | "histogram"
		series []series
	}
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := map[string]*family{}
	var bases []string
	for _, name := range names {
		var kind string
		switch snap[name].(type) {
		case uint64:
			kind = "counter"
		case float64:
			kind = "gauge"
		case histSnapshot:
			kind = "histogram"
		default:
			continue
		}
		base, labels := promName(name)
		f, ok := fams[base]
		if !ok {
			f = &family{kind: kind}
			fams[base] = f
			bases = append(bases, base)
		}
		// A name collision across metric kinds after sanitization would
		// produce an invalid exposition; keep the kind of the first name in
		// sort order and skip the clashing series rather than emit a
		// malformed page.
		if f.kind != kind {
			continue
		}
		f.series = append(f.series, series{normalizeLabels(labels), snap[name]})
	}
	sort.Strings(bases)

	bw := bufio.NewWriter(w)
	for _, base := range bases {
		f := fams[base]
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		fmt.Fprintf(bw, "# TYPE %s %s\n", base, f.kind)
		for _, s := range f.series {
			lb := ""
			if s.labels != "" {
				lb = "{" + s.labels + "}"
			}
			switch v := s.v.(type) {
			case uint64:
				fmt.Fprintf(bw, "%s%s %d\n", base, lb, v)
			case float64:
				fmt.Fprintf(bw, "%s%s %s\n", base, lb, promFloat(v))
			case histSnapshot:
				var cum uint64
				for k, c := range v.Log2 {
					cum += c
					fmt.Fprintf(bw, "%s_bucket%s %d\n",
						base, withLabel(s.labels, `le="`+bucketLE(k)+`"`), cum)
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", base, withLabel(s.labels, `le="+Inf"`), cum)
				fmt.Fprintf(bw, "%s_sum%s %d\n", base, lb, v.Sum)
				fmt.Fprintf(bw, "%s_count%s %d\n", base, lb, cum)
			}
		}
	}
	return bw.Flush()
}

// --- exposition linter -------------------------------------------------

var (
	promSampleRe = regexp.MustCompile(
		`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (NaN|[+-]Inf|[-+]?[0-9].*?)( [0-9]+)?$`)
	promTypeRe  = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	promHelpRe  = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
)

// LintProm validates a Prometheus text-format page the strict way the CI
// smoke job needs: every line must be a # TYPE/# HELP comment or a
// well-formed sample, each family's # TYPE must precede its samples and
// appear only once, and every histogram's buckets must be cumulative
// (nondecreasing in le order), end in le="+Inf", and agree with its
// _count series. It returns the first violation found.
func LintProm(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	types := map[string]string{}
	type histKey struct{ fam, labels string }
	type bucketPoint struct {
		le  float64
		v   float64
		inf bool
	}
	buckets := map[histKey][]bucketPoint{}
	counts := map[histKey]float64{}
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := promTypeRe.FindStringSubmatch(line); m != nil {
				if _, dup := types[m[1]]; dup {
					return fmt.Errorf("line %d: duplicate # TYPE for %s", ln, m[1])
				}
				types[m[1]] = m[2]
				continue
			}
			if promHelpRe.MatchString(line) {
				continue
			}
			return fmt.Errorf("line %d: malformed comment %q", ln, line)
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample %q", ln, line)
		}
		name, labelBlock, valText := m[1], m[3], m[4]
		val, err := parsePromValue(valText)
		if err != nil {
			return fmt.Errorf("line %d: %v", ln, err)
		}
		var le string
		var labelRest []string
		if labelBlock != "" {
			for _, lab := range splitPromLabels(labelBlock) {
				if !promLabelRe.MatchString(lab) {
					return fmt.Errorf("line %d: malformed label %q", ln, lab)
				}
				if strings.HasPrefix(lab, `le="`) {
					le = strings.TrimSuffix(strings.TrimPrefix(lab, `le="`), `"`)
				} else {
					labelRest = append(labelRest, lab)
				}
			}
		}
		fam, suffix := name, ""
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && types[trimmed] == "histogram" {
				fam, suffix = trimmed, suf
				break
			}
		}
		kind, declared := types[fam]
		if !declared {
			return fmt.Errorf("line %d: sample %s before its # TYPE", ln, name)
		}
		if kind == "histogram" {
			key := histKey{fam, strings.Join(labelRest, ",")}
			switch suffix {
			case "_bucket":
				if le == "" {
					return fmt.Errorf("line %d: histogram bucket without le label", ln)
				}
				pt := bucketPoint{v: val, inf: le == "+Inf"}
				if !pt.inf {
					if pt.le, err = strconv.ParseFloat(le, 64); err != nil {
						return fmt.Errorf("line %d: bad le %q", ln, le)
					}
				}
				buckets[key] = append(buckets[key], pt)
			case "_count":
				counts[key] = val
			case "_sum":
			default:
				return fmt.Errorf("line %d: bare sample %s for histogram family %s", ln, name, fam)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for key, pts := range buckets {
		lastLE := math.Inf(-1)
		lastV := -1.0
		sawInf := false
		for _, pt := range pts {
			if pt.inf {
				sawInf = true
			} else if pt.le <= lastLE {
				return fmt.Errorf("histogram %s{%s}: le out of order", key.fam, key.labels)
			} else {
				lastLE = pt.le
			}
			if pt.v < lastV {
				return fmt.Errorf("histogram %s{%s}: bucket counts not cumulative", key.fam, key.labels)
			}
			lastV = pt.v
		}
		if !sawInf {
			return fmt.Errorf("histogram %s{%s}: missing le=\"+Inf\" bucket", key.fam, key.labels)
		}
		if c, ok := counts[key]; !ok || c != lastV {
			return fmt.Errorf("histogram %s{%s}: +Inf bucket %v disagrees with _count %v",
				key.fam, key.labels, lastV, counts[key])
		}
	}
	return nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "NaN":
		return math.NaN(), nil
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", s)
	}
	return v, nil
}

// splitPromLabels splits a label block on commas outside quoted values.
func splitPromLabels(block string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(block); i++ {
		switch block[i] {
		case '"':
			if i == 0 || block[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, block[start:i])
				start = i + 1
			}
		}
	}
	if start < len(block) {
		out = append(out, block[start:])
	}
	return out
}
