package main

// The serve subcommand: run one database as a network server speaking
// the wire protocol of internal/wire (see DESIGN.md §11). Each
// connection authenticates as a principal and is served masked answers
// under per-connection resource limits; SIGINT/SIGTERM trigger a
// graceful drain.
//
//	authdb serve [-addr HOST:PORT] [-metrics-addr HOST:PORT] [-db DIR]
//	             [-paper] [-load FILE] [-max-conns N] [-idle-timeout D]
//	             [-grace D] [-admin-token T] [-max-intermediate-rows N]
//	             [-max-result-rows N] [-stmt-timeout D]

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"authdb"
	"authdb/internal/server"
	"authdb/internal/workload"
)

func runServe(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	def := authdb.DefaultLimits()
	addr := fs.String("addr", "127.0.0.1:6544", "wire-protocol listen address")
	metricsAddr := fs.String("metrics-addr", "", "HTTP /metrics, /healthz and /readyz listen address (empty: disabled)")
	dbdir := fs.String("db", "", "durable database directory to open or create (empty: in-memory)")
	paper := fs.Bool("paper", false, "preload the paper's Figure 1 example database")
	load := fs.String("load", "", "execute this statement script before serving")
	maxConns := fs.Int("max-conns", server.DefaultMaxConns, "connection cap (further dials wait in the accept backlog)")
	idle := fs.Duration("idle-timeout", server.DefaultIdleTimeout, "close connections idle this long")
	grace := fs.Duration("grace", server.DefaultGrace, "drain grace before in-flight statements are canceled")
	token := fs.String("admin-token", "", "require this token of administrator connections")
	maxInter := fs.Int64("max-intermediate-rows", def.MaxIntermediateRows, "per-statement intermediate-row budget (0: unlimited)")
	maxResult := fs.Int64("max-result-rows", def.MaxResultRows, "per-statement result-row cap (0: unlimited)")
	stmtTimeout := fs.Duration("stmt-timeout", def.Timeout, "per-statement wall-clock bound (0: unlimited)")
	fs.Parse(args)

	var db *authdb.DB
	if *dbdir != "" {
		var err error
		db, err = authdb.OpenDir(*dbdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "opening %s: %v\n", *dbdir, err)
			return 1
		}
		fmt.Printf("opened %s (durable)\n", *dbdir)
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

	srv := server.New(db, server.Config{
		Addr:        *addr,
		MetricsAddr: *metricsAddr,
		MaxConns:    *maxConns,
		IdleTimeout: *idle,
		Grace:       *grace,
		AdminToken:  *token,
		Limits: authdb.Limits{
			MaxIntermediateRows: *maxInter,
			MaxResultRows:       *maxResult,
			Timeout:             *stmtTimeout,
		},
	})
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("serving on %s (max %d connections)\n", srv.Addr(), *maxConns)
	if ma := srv.MetricsAddr(); ma != nil {
		fmt.Printf("metrics on http://%s/metrics\n", ma)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("%s: draining (grace %s)\n", got, *grace)
	ctx, cancel := context.WithTimeout(context.Background(), *grace+30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
		return 1
	}
	fmt.Println("drained")
	return 0
}
