// Command authdb is the interactive database front-end of the paper's §6:
// administrators define relations, data, views, and permits; users issue
// retrieve statements against the actual database and receive masked
// answers accompanied by inferred permit statements. The meta-relations
// stay transparent (inspect them with "show meta").
//
// Usage:
//
//	authdb [-user NAME] [-load FILE] [-db DIR] [-storage memory|paged]
//	       [-cache-pages N] [-paper]
//
// With -db, the directory is opened (or created) durably: every mutating
// statement is journaled to a write-ahead log and a crash loses at most
// the statement being written. Directories written with \save open and
// are converted in place.
//
// REPL meta-commands:
//
//	\user NAME         switch to user NAME (unprivileged)
//	\admin             switch to the administrator
//	\load FILE         execute a statement script (admin statements allowed)
//	\save DIR          export the database (schema, data, views, permits)
//	\stats             print the metrics registry (administrator only)
//	\begin snapshot    pin reads to the current version until \end
//	\end               close the snapshot block (reads follow the head again)
//	\quit              exit
//
// Subcommands: `authdb serve` runs the database as a network server
// (see cmd/authdb/serve.go and DESIGN.md §11); `authdb promote` flips a
// replica into the serving primary (DESIGN.md §13). Any other
// positional argument is a usage error.
//
// Everything else is a statement; end statements with ';' or a newline.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"authdb"
	"authdb/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			os.Exit(runServe(os.Args[2:]))
		case "promote":
			os.Exit(runPromote(os.Args[2:]))
		}
	}
	os.Exit(run(os.Args[1:], os.Stdin))
}

// run is the REPL: statements from stdin under the given flags. A
// positional argument is a mistyped subcommand, not input: it is
// refused, or a script would get a prompt on its stdin and exit 0.
func run(args []string, stdin io.Reader) int {
	fs := flag.NewFlagSet("authdb", flag.ExitOnError)
	user := fs.String("user", "", "open the session as this (unprivileged) user; empty means administrator")
	load := fs.String("load", "", "execute this statement script before the prompt")
	dbdir := fs.String("db", "", "open (or create) a durable database directory")
	storage := fs.String("storage", "", "durable storage backend: memory (CSV snapshots) or paged (B+Trees, incremental checkpoints); empty: AUTHDB_STORAGE, then the directory's existing format")
	cachePages := fs.Int("cache-pages", 0, "paged backend's buffer-cache budget in 4KiB pages (0: 4096)")
	paper := fs.Bool("paper", false, "preload the paper's Figure 1 example database")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "authdb: unexpected argument %q\nusage: authdb [flags] | authdb serve [flags] | authdb promote [flags]\n", fs.Arg(0))
		return 2
	}

	var db *authdb.DB
	if *dbdir != "" {
		opt := authdb.DefaultOptions()
		opt.Storage = *storage
		opt.CachePages = *cachePages
		var err error
		db, err = authdb.OpenDir(*dbdir, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "opening %s: %v\n", *dbdir, err)
			return 1
		}
		fmt.Printf("opened %s (durable, %s storage)\n", *dbdir, db.StorageBackend())
	} else {
		db = authdb.Open()
	}
	defer db.Close()

	admin := db.Admin()
	if *paper {
		admin.MustExecScript(workload.PaperScript)
		fmt.Println("loaded the paper's example database (users: Brown, Klein)")
	}
	if *load != "" {
		if err := execFile(admin, *load); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("loaded %s\n", *load)
	}

	session := admin
	who := "admin"
	if *user != "" {
		session = db.Session(*user)
		who = *user
	}

	in := bufio.NewScanner(stdin)
	// Statements (bulk inserts, generated scripts) can exceed bufio's
	// 64KiB default line limit.
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() { fmt.Printf("%s> ", who) }
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, `\`):
			switch {
			case trimmed == `\quit` || trimmed == `\q`:
				return 0
			case trimmed == `\stats`, trimmed == `\begin snapshot`,
				trimmed == `\begin`, trimmed == `\end`:
				// Session.Dispatch owns \stats and the snapshot-block
				// commands, exactly as the network server does — the
				// behavior is identical in both front ends.
				exec(session, trimmed)
			case trimmed == `\admin`:
				session, who = admin, "admin"
			case strings.HasPrefix(trimmed, `\user `):
				name := strings.TrimSpace(strings.TrimPrefix(trimmed, `\user `))
				if name == "" {
					fmt.Println("usage: \\user NAME")
				} else {
					session, who = db.Session(name), name
				}
			case strings.HasPrefix(trimmed, `\load `):
				file := strings.TrimSpace(strings.TrimPrefix(trimmed, `\load `))
				if err := execFile(admin, file); err != nil {
					fmt.Println("error:", err)
				} else {
					fmt.Println("loaded", file)
				}
			case strings.HasPrefix(trimmed, `\save `):
				dir := strings.TrimSpace(strings.TrimPrefix(trimmed, `\save `))
				if err := db.Save(dir); err != nil {
					fmt.Println("error:", err)
				} else {
					fmt.Println("saved to", dir)
				}
			default:
				fmt.Println(`meta-commands: \user NAME, \admin, \load FILE, \save DIR, \stats, \begin snapshot, \end, \quit`)
			}
			pending.Reset()
			prompt()
			continue
		case trimmed == "" && pending.Len() == 0:
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		stmt := pending.String()
		// A statement completes at ';' or at a blank line.
		if !strings.Contains(stmt, ";") && trimmed != "" {
			continue
		}
		pending.Reset()
		exec(session, stmt)
		prompt()
	}
	if err := in.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "reading input:", err)
		return 1
	}
	return 0
}

// execFile runs a statement script as the administrator; errors name the
// file and the line of the statement that failed.
func execFile(admin *authdb.Session, file string) error {
	script, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	if _, err := admin.ExecScript(string(script)); err != nil {
		// ExecScript errors already carry "line N:" for execution
		// failures and "pos N:" for parse failures.
		return fmt.Errorf("%s: %w", file, err)
	}
	return nil
}

// exec runs one statement (or \stats) through Session.Dispatch — the
// dispatch path the network server uses — and prints Result.Render,
// the rendering network clients apply to the reply, so both front ends
// show identical output.
func exec(session *authdb.Session, stmt string) {
	stmt = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(stmt), ";"))
	if stmt == "" {
		return
	}
	res, err := session.Dispatch(context.Background(), stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(res.Render())
}
