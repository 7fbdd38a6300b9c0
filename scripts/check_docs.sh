#!/usr/bin/env bash
# check_docs.sh — docs-consistency gate (run from the repository root).
#
# The docs promise command lines; this script fails if they drift from
# what the binaries actually accept:
#
#   1. every `-flag` on a documented optique-demo/optique-bench command
#      line must appear in that tool's own -h output (a flag belongs to
#      the tool named before it on the line, or to the line's first
#      tool when it comes first);
#   2. every documented `-exp NAME` must appear in
#      `optique-bench -exp list`;
#   3. every `BenchmarkXxx` name the docs cite must exist in a
#      *_test.go file;
#   4. the race-detector package list in ROADMAP.md's "Concurrency
#      verify" recipe must match the one CI actually runs;
#   5. every `TestXxx` name the docs cite must name a test in a
#      *_test.go file, or prefix one (a `go test -run` pattern).
#   6. README's Settings table, with the note under it, must name
#      exactly the fields of cluster.Options and exastream.Options
#      (the latter as `Engine.X`), and docs/observability.md's event
#      table exactly the names in telemetry.eventKindNames.
set -u

DOCS="README.md DESIGN.md EXPERIMENTS.md docs/starql.md docs/recovery.md docs/governance.md docs/vectorized.md docs/observability.md docs/planner.md docs/transport.md"
fail=0

# ---- 1+2: flags on documented tool invocations ----

# `go run ... -h` exits 2 after printing usage to stderr; keep the text.
usage_flags() {
	go run "./cmd/$1" -h 2>&1 | sed -n 's/^  \(-[a-z][a-z-]*\).*/\1/p' | sort -u
}
demo_flags=$(usage_flags optique-demo)
bench_flags=$(usage_flags optique-bench)
known_exps=$(go run ./cmd/optique-bench -exp list)

if [ -z "$demo_flags" ] || [ -z "$bench_flags" ] || [ -z "$known_exps" ]; then
	echo "check_docs: could not read tool usage output" >&2
	exit 1
fi

for doc in $DOCS; do
	# Only lines that name one of the tools promise its interface.
	lines=$(grep -n 'optique-demo\|optique-bench' "$doc" || true)
	while IFS= read -r line; do
		[ -z "$line" ] && continue
		lineno=${line%%:*}
		text=${line#*:}
		# Split the line before each tool name; text ahead of the first
		# one belongs to the first tool named. Flag tokens: "-name" or
		# "-name=value", preceded by a space, backtick, or segment start
		# (so `->`, `-1`, and hyphenated prose don't match).
		tool=$(printf '%s\n' "$text" | grep -oE 'optique-(demo|bench)' | head -n 1)
		while IFS= read -r seg; do
			case $seg in
			optique-demo*) tool=optique-demo ;;
			optique-bench*) tool=optique-bench ;;
			esac
			seg=${seg#optique-demo}
			seg=${seg#optique-bench}
			if [ "$tool" = optique-demo ]; then
				tool_flags=$demo_flags
			else
				tool_flags=$bench_flags
			fi
			for flag in $(printf '%s\n' "$seg" |
				grep -oE '(^|[ `(])-[a-z][a-z-]+' | sed 's/^[ `(]*//' | sort -u); do
				if ! printf '%s\n' "$tool_flags" | grep -qx -- "$flag"; then
					echo "$doc:$lineno: documents flag $flag, which $tool does not accept" >&2
					fail=1
				fi
			done
		done <<SEGS
$(printf '%s\n' "$text" | sed -E 's/optique-(demo|bench)/\n&/g')
SEGS
		for exp in $(printf '%s\n' "$text" |
			grep -oE '\-exp [a-z]+' | awk '{print $2}' | sort -u); do
			if ! printf '%s\n' "$known_exps" | grep -qx -- "$exp"; then
				echo "$doc:$lineno: documents unknown experiment '-exp $exp'" >&2
				fail=1
			fi
		done
	done <<EOF
$lines
EOF
done

# ---- 3: benchmark names cited in docs exist in test files ----

bench_defs=$(grep -rhoE 'func (Benchmark[A-Za-z0-9_]+)' --include='*_test.go' . |
	awk '{print $2}' | sort -u)
for doc in $DOCS; do
	for name in $(grep -oE 'Benchmark[A-Za-z0-9]+' "$doc" | sort -u); do
		if ! printf '%s\n' "$bench_defs" | grep -qx -- "$name"; then
			echo "$doc: cites unknown benchmark $name" >&2
			fail=1
		fi
	done
done

# ---- 5: test names cited in docs exist in test files ----

test_defs=$(grep -rhoE 'func (Test[A-Za-z0-9_]+)' --include='*_test.go' . |
	awk '{print $2}' | sort -u)
for doc in $DOCS; do
	for name in $(grep -oE '\bTest[A-Z][A-Za-z0-9_]*' "$doc" | sort -u); do
		if ! printf '%s\n' "$test_defs" | grep -q -- "^$name"; then
			echo "$doc: cites unknown test $name" >&2
			fail=1
		fi
	done
done

# ---- 4: ROADMAP race recipe matches the CI race step ----

roadmap_race=$(sed -n 's/.*go test -race //p' ROADMAP.md |
	grep -oE '\./internal/[a-z]+/' | sort -u)
ci_race=$(sed -n 's/.*go test -race //p' .github/workflows/ci.yml |
	grep -oE '\./internal/[a-z]+/' | sort -u)
if [ -z "$roadmap_race" ] || [ -z "$ci_race" ]; then
	echo "check_docs: could not extract race package lists" >&2
	fail=1
elif [ "$roadmap_race" != "$ci_race" ]; then
	echo "check_docs: ROADMAP.md concurrency-verify packages drifted from ci.yml:" >&2
	diff <(printf '%s\n' "$roadmap_race") <(printf '%s\n' "$ci_race") >&2 || true
	fail=1
fi

# ---- 6: settings and event tables match the code ----

# struct_fields FILE: the field names of FILE's `type Options struct`.
struct_fields() {
	sed -n '/^type Options struct {/,/^}/p' "$1" | grep -E '^	[A-Z]' | awk '{print $1}'
}
# same_set WHAT DOCUMENTED EXPECTED: report the names one side lacks.
same_set() {
	if [ -z "$3" ] || [ "$2" != "$3" ]; then
		echo "check_docs: $1 drifted from the code (< documented, > code):" >&2
		diff <(printf '%s\n' "$2") <(printf '%s\n' "$3") >&2 || true
		fail=1
	fi
}
want_settings=$({
	struct_fields internal/cluster/cluster.go | grep -vx Engine
	struct_fields internal/exastream/exastream.go | sed 's/^/Engine./'
} | sort -u)
# The table runs from its header to the first blank line (its Field
# column); the note is the paragraph after it (its `Engine.X` names).
doc_settings=$(awk -F'|' '
	/^\| Setting \| Field \|/ { part = 1; next }
	part == 1 && /^$/ { part = 2; next }
	part == 1 && !/^\|---/ { print $3 }
	part == 2 && /^$/ { exit }
	part == 2 { while (match($0, /`Engine\.[A-Za-z]+`/)) { print substr($0, RSTART, RLENGTH); $0 = substr($0, RSTART + RLENGTH) } }
' README.md | grep -oE '`[A-Za-z.]+`' | tr -d '`' | sort -u)
same_set "README.md's Settings table" "$doc_settings" "$want_settings"
want_events=$(sed -n '/^var eventKindNames/,/^}/p' internal/telemetry/recorder.go |
	grep -oE '"[a-z_]+"' | tr -d '"' | sort -u)
doc_events=$(sed -n '/^| kind | recorded when |/,/^$/p' docs/observability.md |
	awk -F'|' 'NR > 2 {print $2}' | grep -oE '`[a-z_]+`' | tr -d '`' | sort -u)
same_set "docs/observability.md's event table" "$doc_events" "$want_events"

if [ "$fail" -ne 0 ]; then
	echo "check_docs: FAILED — docs reference interfaces the tools don't report" >&2
	exit 1
fi
echo "check_docs: OK ($(printf '%s\n' "$demo_flags" | wc -l) demo flags, $(printf '%s\n' "$bench_flags" | wc -l) bench flags, $(printf '%s\n' "$known_exps" | wc -l) experiments, $(printf '%s\n' "$bench_defs" | wc -l) benchmarks, $(printf '%s\n' "$test_defs" | wc -l) tests)"
