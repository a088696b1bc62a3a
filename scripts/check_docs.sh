#!/bin/sh
# Stale-name gate: the names the top-level docs put in backticks still exist.
# Plain `go list` and `go doc`, nothing downloaded. In README.md, DESIGN.md,
# EXPERIMENTS.md and the verify skill, an inline code span fails when
#
#   1. it is an internal/… or cmd/… path (an optional ./ before, an optional
#      :line after) that is neither a file nor a directory,
#   2. it names pkg.Ident (or pkg.Type.Method), pkg one of the repo's
#      internal packages, and `go doc -u` cannot resolve it, or
#   3. it names pkg.TestX or pkg.FuzzX and no _test.go file of that package
#      declares the function.
#
# Fenced code blocks are not checked. A name deleted on purpose is history:
# write it without backticks. CHANGES.md, ROADMAP.md and benchmark/ are not
# checked. Run it locally with `make docs-check`; `make verify` and CI
# include it.
set -eu

cd "$(dirname "$0")/.."
GO=${GO:-go}
DOCS="README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md"
status=0

# "name dir" for every internal package (a list that fails here must not read
# as "no packages").
pkgs=$($GO list -f '{{.Name}} {{.Dir}}' ./internal/...)

# spans <file>: every inline code span, one a line, outside fenced blocks
# (a span may wrap onto the next line within its paragraph).
spans() {
	awk '/^[ \t]*```/ { fence = !fence; print ""; next } fence { print ""; next } { print }' "$1" |
		awk 'BEGIN { RS = "" } { gsub(/\n/, " "); n = split($0, a, "`"); for (i = 2; i < n; i += 2) print a[i] }'
}

# fail <file> <name> <why>: report the first line the name is on.
fail() {
	line=$(grep -nF -- "$2" "$1" | head -n 1 | cut -d: -f1)
	echo "FAIL $1:${line:-?}: \`$2\` $3"
	status=1
}

checked=0
for doc in $DOCS; do
	for path in $(spans "$doc" | sed -nE 's#^(\./)?((internal|cmd)/[A-Za-z0-9_./-]*)(:[0-9].*)?$#\2#p' | sort -u); do
		checked=$((checked + 1))
		dir=${path%%.[A-Z]*}
		if [ "$dir" != "$path" ]; then
			# internal/pkg.Ident: the package's directory, then the name in it.
			[ -d "$dir" ] && $GO doc -u "./$dir" "${path#"$dir".}" >/dev/null 2>&1 ||
				fail "$doc" "$path" "does not resolve (go doc -u ./$dir ${path#"$dir".})"
		elif [ ! -e "${path%/}" ]; then
			fail "$doc" "$path" "is not a file or directory"
		fi
	done
	# Go names are camelCase: a snake_case pkg.name is a benchmark field.
	names=$(spans "$doc" | grep -v '/' |
		grep -oE '(^|[^A-Za-z0-9_.])[a-z][a-z0-9]*\.[A-Za-z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)?' |
		sed 's/^[^a-z]//' | grep -vE '^[a-z0-9]+\.[a-z0-9]*_' | sort -u)
	for name in $names; do
		pkg=${name%%.*}
		ident=${name#*.}
		dir=$(echo "$pkgs" | awk -v p="$pkg" '$1 == p { print $2; exit }')
		[ -n "$dir" ] || continue
		checked=$((checked + 1))
		case $ident in
		Test* | Fuzz*)
			grep -qE "^func ${ident%%.*}\(" "$dir"/*_test.go 2>/dev/null ||
				fail "$doc" "$name" "is no test function of internal/$pkg"
			;;
		*)
			$GO doc -u "$dir" "$ident" >/dev/null 2>&1 ||
				fail "$doc" "$name" "does not resolve (go doc -u internal/$pkg $ident)"
			;;
		esac
	done
done

if [ $status -eq 0 ]; then
	echo "docs check: ok ($checked backticked paths and names resolve in $DOCS)"
fi
exit $status
