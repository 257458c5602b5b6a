#!/bin/sh
# gen.sh AUTHDB DIR writes the epoch-generation fixture: it drives the
# authdb REPL binary AUTHDB against the fresh durable directory DIR
# twice. The first run defines two relations, a view and a permit, and
# inserts six rows, all journaled in the WAL; the second run only opens
# the directory, so its opening checkpoint commits them as
# snap-000002, whose WAL holds no record. Builds at or before 7560010,
# which had replication, write an EPOCH file (the fencing-epoch
# history, "1 0" on a node never promoted) into every generation and
# list it in the MANIFEST; later builds write none and ignore the file,
# and this fixture is the input of that compatibility test.
set -eu
[ $# -eq 2 ] || { echo "usage: gen.sh AUTHDB DIR" >&2; exit 2; }
authdb=$1 dir=$2
[ ! -e "$dir" ] || { echo "gen.sh: $dir exists" >&2; exit 1; }

run() {
	out=$("$authdb" -db "$dir")
	if printf '%s\n' "$out" | grep -q 'error'; then
		printf '%s\n' "$out" | grep 'error' >&2
		exit 1
	fi
}

run <<'SCRIPT'
relation EMPLOYEE (NAME, TITLE, SALARY) key (NAME);
relation PROJECT (NUMBER, SPONSOR, BUDGET) key (NUMBER);
insert into EMPLOYEE values (Jones, manager, 32000);
insert into EMPLOYEE values (Brown, engineer, 26000);
insert into EMPLOYEE values (Smith, "5", 21000);
insert into PROJECT values (bq-45, Acme, 300000);
insert into PROJECT values (sv-72, Apex, 150000);
insert into PROJECT values (ez-13, Acme, "");
view VP (PROJECT.NUMBER, PROJECT.BUDGET) where PROJECT.SPONSOR = Acme;
permit VP to Brown;
SCRIPT

run </dev/null
