#!/bin/sh
# gen.sh AUTHDB DIR writes the paged-root2 fixture: it drives the authdb
# REPL binary AUTHDB against the fresh durable directory DIR three times.
# The first run defines two relations, two views and two permits and
# loads 240 employees and 90 projects; every twelfth title and every
# tenth project number is long enough that its tuple key spills to an
# overflow page. The second run opens the directory (its opening
# checkpoint commits the load) and deletes a third of the rows, spilled
# keys among them. The third run only opens the directory, so its
# opening checkpoint commits the deletes. The same binary writes the
# same pages.db and ROOT byte for byte on every run. Only builds at or
# before 99dfd3b write a page store; later builds refuse to open one,
# and this fixture is the input of that refusal's test.
set -eu
[ $# -eq 2 ] || { echo "usage: gen.sh AUTHDB DIR" >&2; exit 2; }
authdb=$1 dir=$2
[ ! -e "$dir" ] || { echo "gen.sh: $dir exists" >&2; exit 1; }
long=$(printf '%0600d' 0 | tr 0 x)

run() {
	out=$("$authdb" -db "$dir")
	if printf '%s\n' "$out" | grep -q 'error'; then
		printf '%s\n' "$out" | grep 'error' >&2
		exit 1
	fi
}

{
	echo 'relation EMPLOYEE (NAME, TITLE, SALARY) key (NAME);'
	echo 'relation PROJECT (NUMBER, SPONSOR, BUDGET) key (NUMBER);'
	i=1
	while [ $i -le 240 ]; do
		title="clerk grade $((i % 9))"
		[ $((i % 12)) -ne 0 ] || title="senior $i $long"
		printf 'insert into EMPLOYEE values (e%03d, "%s", %d);\n' $i "$title" $((15000 + i * 397 % 20000))
		i=$((i + 1))
	done
	i=1
	while [ $i -le 90 ]; do
		number=$(printf 'p%03d' $i)
		[ $((i % 10)) -ne 0 ] || number="$number-$long"
		sponsor=Apex
		[ $((i % 2)) -ne 0 ] || sponsor=Acme
		printf 'insert into PROJECT values ("%s", %s, %d);\n' "$number" $sponsor $((50000 + i * 7919 % 300000))
		i=$((i + 1))
	done
	echo 'view VP (PROJECT.NUMBER, PROJECT.BUDGET) where PROJECT.SPONSOR = Acme;'
	echo 'permit VP to Brown;'
	echo 'view VE (EMPLOYEE.NAME, EMPLOYEE.TITLE) where EMPLOYEE.SALARY < 25000;'
	echo 'permit VE to Klein;'
} | run

{
	echo 'delete from EMPLOYEE where EMPLOYEE.SALARY < 21000;'
	echo 'delete from PROJECT where PROJECT.BUDGET > 250000;'
} | run

run </dev/null
