#!/bin/sh
# gen.sh AUTHDB DIR writes the paged-null fixture with AUTHDB, an authdb
# REPL binary of a build that stored tuples as CSV (at or before
# a7a3ef6). The first run defines R (A, B) holding (1, "5"), (2, "")
# and (3, 5), a view and a permit, and saves the state to DIR in that
# build's flat layout, where data/R.csv writes "" as an empty field.
# The second run opens DIR as a durable directory: that build read the
# empty field back as null, and its opening checkpoint converted the
# state to a page store holding it. The flat files are then removed, so
# DIR holds only the durable generation.
set -eu
[ $# -eq 2 ] || { echo "usage: gen.sh AUTHDB DIR" >&2; exit 2; }
authdb=$1 dir=$2
[ ! -e "$dir" ] || { echo "gen.sh: $dir exists" >&2; exit 1; }

run() {
	out=$("$authdb" "$@")
	if printf '%s\n' "$out" | grep -q 'error'; then
		printf '%s\n' "$out" | grep 'error' >&2
		exit 1
	fi
}

{
	echo 'relation R (A, B) key (A);'
	echo 'insert into R values (1, "5");'
	echo 'insert into R values (2, "");'
	echo 'insert into R values (3, 5);'
	echo 'view V (R.A, R.B);'
	echo 'permit V to u;'
	echo
	echo "\\save $dir"
} | run

run -db "$dir" </dev/null
grep -q '^2,$' "$dir/data/R.csv"
rm -r "$dir/data" "$dir/schema.authdb" "$dir/views.authdb"
