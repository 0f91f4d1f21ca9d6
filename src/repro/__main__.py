"""Command-line front end: ``python -m repro <command> <dbdir> ...``.

Commands:

* ``info DB``                — schema, storage strategy, space, indexes
* ``query DB "MQL"``         — run a temporal MQL query and print it
* ``profile DB "MQL"``       — run under EXPLAIN ANALYZE and print the
  per-operator profile (``--json`` for machine-readable output)
* ``history DB ATOM_ID``     — print an atom's bitemporal record
* ``timeline DB ATOM_ID``    — print the coalesced current-belief timeline
* ``verify DB``              — run the integrity verifier
* ``vacuum DB --before-tt T``— remove versions superseded before T
* ``serve --path DB --port N`` — serve the database over TCP
  (``--metrics-port`` adds the HTTP /metrics+/health sidecar,
  ``--event-log FILE`` tees structured events to a JSON-lines file,
  ``--replica-of HOST:PORT`` runs as a read-only replica that ships
  and replays the primary's WAL)
* ``shell --connect HOST:PORT`` — interactive MQL shell over the wire
  (``\\tail [TYPE]`` follows the server's change stream)
* ``monitor --connect HOST:PORT`` — top-like live view of a running
  server: throughput, latency percentiles, shed rate, buffer hits,
  replication and change-stream subscriber lag
* ``tail --connect HOST:PORT`` — follow the change-data-capture
  stream: committed changes as typed events, with server-side
  filters and a named resumable cursor (see ``docs/cdc.md``)

All commands open the database read-mostly and close it cleanly.
"""

from __future__ import annotations

import argparse
import sys

from repro import DatabaseConfig, TemporalDatabase, VersionStrategy
from repro.core import history as hist
from repro.errors import ReproError
from repro.tools import (
    database_statistics,
    dump_json,
    load_database,
    vacuum_superseded,
    verify_database,
)


def _open(path: str) -> TemporalDatabase:
    return TemporalDatabase.open(path)


def cmd_info(args: argparse.Namespace) -> int:
    with _open(args.db) as db:
        stats = db.storage_stats()
        print(f"database    : {args.db}")
        print(f"schema      : {db.schema.name}")
        print(f"strategy    : {stats.strategy}")
        print(f"page size   : {stats.page_size}")
        print(f"pages       : {stats.total_pages} "
              f"({stats.total_bytes} bytes)")
        print(f"segments    : {stats.segment_pages}")
        print("atom types  :")
        for atom_type in db.schema.atom_types:
            count = len(db.atoms_of_type(atom_type.name))
            attrs = ", ".join(f"{a.name}:{a.data_type.value}"
                              for a in atom_type.attributes)
            print(f"  {atom_type.name} ({count} atoms): {attrs}")
        print("link types  :")
        for link in db.schema.link_types:
            print(f"  {link.name}: {link.source} -> {link.target} "
                  f"[{link.cardinality.value}]")
        print(f"indexes     : {', '.join(db.indexes.index_names())}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    with _open(args.db) as db:
        print(database_statistics(db).summary())
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    with _open(args.db) as db:
        result = db.query(args.mql)
        print(f"-- plan: {result.plan}")
        print(result.to_table())
        print(f"-- {len(result)} entr{'y' if len(result) == 1 else 'ies'}")
        if result.profile is not None:  # query had an EXPLAIN ANALYZE prefix
            print()
            print(result.profile.render())
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import json

    with _open(args.db) as db:
        result = db.explain(args.mql)
        profile = result.profile
        if args.json:
            print(json.dumps({
                "plan": result.plan,
                "entries": len(result),
                "profile": profile.to_dict() if profile else None,
                "metrics": db.metrics_snapshot(),
            }, indent=2, sort_keys=True))
        else:
            if profile is not None:
                print(profile.render())
            print(f"-- {len(result)} entr{'y' if len(result) == 1 else 'ies'}")
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    with _open(args.db) as db:
        versions = db.history(args.atom_id)
        type_name = db.engine.atom_type_name(args.atom_id)
        print(f"atom {args.atom_id} ({type_name}): "
              f"{len(versions)} version records")
        for seq, version in enumerate(versions):
            marker = "live" if version.live else "superseded"
            print(f"  [{seq:>3}] vt={str(version.vt):>20} "
                  f"tt={str(version.tt):>20} [{marker}]")
            for key, value in sorted(version.values.items()):
                print(f"        {key} = {value!r}")
            for key, partners in sorted(version.refs.items()):
                print(f"        {key} -> {sorted(partners)}")
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    with _open(args.db) as db:
        versions = db.history(args.atom_id)
        print(f"atom {args.atom_id}: current-belief timeline")
        for version in hist.coalesce_timeline(versions):
            values = ", ".join(f"{k}={v!r}"
                               for k, v in sorted(version.values.items()))
            print(f"  {version.vt}: {values}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    with _open(args.db) as db:
        report = verify_database(db)
        print(report.summary())
        for problem in report.problems:
            print(f"  ! {problem}")
        return 0 if report.ok else 1


def cmd_vacuum(args: argparse.Namespace) -> int:
    with _open(args.db) as db:
        report = vacuum_superseded(db, args.before_tt)
        print(report.summary())
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    with _open(args.db) as db:
        text = dump_json(db)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"dumped to {args.output}")
    else:
        print(text)
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    import json

    with open(args.dump_file, encoding="utf-8") as handle:
        document = json.load(handle)
    config = None
    if args.strategy:
        config = DatabaseConfig(strategy=VersionStrategy(args.strategy))
    db = load_database(args.db, document, config)
    print(f"loaded {len(document['atoms'])} atoms into {args.db} "
          f"({db.config.strategy.value})")
    db.close()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import socket

    from repro.obs import EventLog
    from repro.server import AdmissionController, DatabaseServer

    replica_of = getattr(args, "replica_of", None)
    primary_host = primary_port = None
    if replica_of:
        primary_host, _, port_text = replica_of.rpartition(":")
        if not primary_host or not port_text.isdigit():
            print(f"error: --replica-of needs HOST:PORT, got {replica_of!r}",
                  file=sys.stderr)
            return 2
        primary_port = int(port_text)

    db = _open(args.path)
    applier = None
    if replica_of:
        from repro.replication import ReplicaApplier
        applier = ReplicaApplier(
            db, primary_host, primary_port,
            replica_id=args.replica_id,
            checkpoint_interval=args.replica_checkpoint_interval)
    event_sink = None
    if args.event_log:
        event_sink = open(args.event_log, "a", encoding="utf-8")
    admission = AdmissionController(
        max_inflight=args.max_inflight,
        max_queued=args.max_queued,
        request_timeout=args.request_timeout,
        slow_query_ms=args.slow_query_ms,
        metrics=db.metrics,
        events=EventLog(sink=event_sink, metrics=db.metrics))
    server = DatabaseServer(
        db, host=args.host, port=args.port,
        max_connections=args.max_connections,
        idle_timeout=args.idle_timeout,
        admission=admission,
        metrics_port=args.metrics_port,
        metrics_host=args.host,
        worker_threads=args.worker_threads,
        replication=applier)
    # The handlers do nothing: the interpreter writes each caught
    # signal's number to the wakeup socket the main thread waits on.  A
    # handler that takes a lock (threading.Event.set) deadlocks when a
    # second signal lands while the first one's handler holds it.  Once
    # shutdown starts, further signals are ignored, through interpreter
    # exit, so a repeated SIGTERM cannot cut the checkpoint short.
    wakeup, wakeup_writer = socket.socketpair()
    wakeup_writer.setblocking(False)
    signal.set_wakeup_fd(wakeup_writer.fileno())
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: None)
    server.start()
    if applier is not None:
        applier.start()
        print(f"read-only replica of {replica_of} "
              f"(replica id {applier.replica_id})", flush=True)
    print(f"serving {args.path} on {server.host}:{server.port} "
          f"(max {args.max_connections} connections, "
          f"{args.max_inflight} in flight)", flush=True)
    if server.sidecar is not None:
        print(f"telemetry on http://{server.sidecar.host}:"
              f"{server.sidecar.port} (/metrics /health /stats)",
              flush=True)
    try:
        wakeup.recv(1)
    finally:
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, signal.SIG_IGN)
        print("shutting down: draining requests, checkpointing...",
              flush=True)
        if applier is not None:
            applier.stop()
        server.shutdown()
        db.close()
        if event_sink is not None:
            event_sink.close()
        signal.set_wakeup_fd(-1)
        wakeup.close()
        wakeup_writer.close()
        print("closed cleanly", flush=True)
    return 0


def _counter_total(snapshot, name: str) -> int:
    return sum(c["value"] for c in snapshot.get("counters", ())
               if c["name"] == name)


def _histogram_entry(snapshot, name: str):
    for histogram in snapshot.get("histograms", ()):
        if histogram["name"] == name:
            return histogram
    return None


def _render_monitor(body, prev, elapsed: float):
    """``(frame text, counter totals)`` from one STATS response.

    *prev* is the previous poll's ``(requests, shed)`` counter totals
    (or None on the first frame) — rates are deltas over *elapsed*.
    """
    server = body["server"]
    metrics = body["metrics"]
    admission = server["admission"]
    requests = _counter_total(metrics, "server.requests")
    shed = _counter_total(metrics, "server.load_shed")
    hits = _counter_total(metrics, "buffer.hits")
    misses = _counter_total(metrics, "buffer.misses")
    pins = hits + misses
    lines = [
        f"repro server {server['host']}:{server['port']}"
        f"  up {server['uptime_seconds']:.0f}s"
        + ("  [DRAINING]" if server.get("draining") else ""),
        f"sessions {server['sessions']}/{server['max_connections']}"
        f"  inflight {admission['inflight']}/{admission['max_inflight']}"
        f"  queued {admission['queued']}/{admission['max_queued']}"
        + (f"  cursors {server['open_cursors']}"
           if server.get("open_cursors") else ""),
        f"requests {requests}  shed {shed}"
        f"  timeouts {_counter_total(metrics, 'server.queue_timeouts')}",
    ]
    replication = server.get("replication")
    if replication:
        if replication.get("role") == "replica":
            line = (f"replica of {replication['primary']}"
                    f"  replayed lsn {replication['replayed_lsn']}"
                    f" (tt {replication['replayed_tt']})"
                    f"  lag {replication['lag_seconds']:.1f}s")
            if not replication.get("connected"):
                line += "  [DISCONNECTED]"
            lines.append(line)
        else:
            subs = replication.get("subscribers") or {}
            line = (f"primary  wal head {replication.get('head', 0)}"
                    f"  replicas {len(subs)}")
            retained = replication.get("retained_bytes") or 0
            if retained:
                line += f"  retained {retained} bytes"
            lines.append(line)
    cdc = server.get("cdc")
    if cdc and cdc.get("subscribers"):
        subscribers = cdc["subscribers"]
        lines.append(f"cdc subscribers {len(subscribers)}"
                     f"  events decoded {cdc.get('events_decoded', 0)}")
        for name, entry in sorted(subscribers.items()):
            lines.append(f"  {name}: acked {entry['acked']}"
                         f"  lag {entry['lag']}"
                         f"  held {entry['held_bytes']} bytes")
    if prev is not None and elapsed > 0:
        rate = (requests - prev[0]) / elapsed
        shed_rate = (shed - prev[1]) / elapsed
        lines.append(f"throughput {rate:.1f} req/s"
                     f"  shed {shed_rate:.1f}/s")
    latency = _histogram_entry(metrics, "server.request_seconds")
    if latency is not None and latency["count"]:
        pct = latency["percentiles"]
        cells = "  ".join(
            f"{label} {pct[label] * 1000.0:.2f}ms"
            for label in ("p50", "p95", "p99")
            if pct.get(label) is not None)
        lines.append(f"latency {cells}  ({latency['count']} samples)")
    if pins:
        lines.append(f"buffer {hits}/{pins} hits "
                     f"({100.0 * hits / pins:.1f}%)")
    for event in body.get("events", ()):
        detail = " ".join(
            f"{key}={value}" for key, value in sorted(event.items())
            if key not in ("seq", "ts", "event") and value is not None)
        lines.append(f"  [{event['seq']:>5}] {event['event']}"
                     + (f" {detail}" if detail else ""))
    return "\n".join(lines), (requests, shed)


def _format_event(event) -> str:
    """One change event as a human-readable tail line."""
    vt = event.get("vt") or (0, 0)
    text = (f"[{event.get('lsn', '?'):>6}] tt {event['tt']}  "
            f"{event['kind']:<17} {event.get('type') or '?'}"
            f"#{event['atom_id']}  vt [{vt[0]},{vt[1]})")
    if event.get("link"):
        text += f"  {event['link']}: {event['src']} -> {event['dst']}"
    if event["kind"] == "attribute_changed":
        before = event.get("before") or {}
        after = event.get("after") or {}
        changed = {key: after[key] for key in after
                   if before.get(key) != after.get(key)}
        text += f"  {changed}"
    elif event["kind"] == "atom_created":
        text += f"  {event.get('after') or {}}"
    return text


def cmd_tail(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ConnectionClosedError, RemoteError
    from repro.server import DatabaseClient

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(f"error: --connect needs HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    client = DatabaseClient(host, int(port))
    feed = client.subscribe(args.subscriber, types=args.type or None,
                            kinds=args.kind or None,
                            roots=args.root or None,
                            from_lsn=args.from_lsn)
    seen = 0
    try:
        for event in feed:
            if args.json:
                print(json.dumps(event, sort_keys=True), flush=True)
            else:
                print(_format_event(event), flush=True)
            seen += 1
            if args.count and seen >= args.count:
                break
    except KeyboardInterrupt:
        pass
    except (RemoteError, ConnectionClosedError) as exc:
        print(f"server went away: {exc}", file=sys.stderr)
        return 1
    finally:
        feed.close()
        client.close()
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    import time

    from repro.errors import ConnectionClosedError, RemoteError
    from repro.server import DatabaseClient

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(f"error: --connect needs HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    client = DatabaseClient(host, int(port))
    prev = None
    last_poll = time.monotonic()
    clear = not args.once and sys.stdout.isatty()
    try:
        while True:
            try:
                body = client.stats(events=args.events)
            except (RemoteError, ConnectionClosedError) as exc:
                print(f"server went away: {exc}", file=sys.stderr)
                return 1
            now = time.monotonic()
            frame, totals = _render_monitor(body, prev, now - last_poll)
            prev, last_poll = totals, now
            if clear:
                print("\x1b[2J\x1b[H", end="")
            print(frame, flush=True)
            if args.once:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def _shell_tail(host: str, port: int, session_id, type_name) -> None:
    """The shell's ``\\tail [TYPE]`` command: follow the change stream.

    Runs on its own connection so a Ctrl-C landing mid-poll can only
    desynchronize the tail's connection, never the shell's.  The
    ephemeral cursor is unsubscribed afterwards (on a fresh connection,
    since the tail's own may be unusable) so it never pins WAL
    retention once the shell moves on.
    """
    from repro.errors import (ConnectionClosedError, ProtocolError,
                              RemoteError)
    from repro.server import DatabaseClient

    subscriber = f"shell-{session_id}"
    tail_client = DatabaseClient(host, port)
    feed = tail_client.subscribe(
        subscriber, types=[type_name] if type_name else None)
    print(f"tailing changes as {subscriber!r}"
          + (f" (type {type_name})" if type_name else "")
          + "; Ctrl-C returns to the prompt")
    count = 0
    try:
        for event in feed:
            print("  " + _format_event(event), flush=True)
            count += 1
    except KeyboardInterrupt:
        print(f"-- {count} event{'' if count == 1 else 's'}")
    except (RemoteError, ConnectionClosedError) as exc:
        print(f"tail ended: {exc}", file=sys.stderr)
    finally:
        try:
            tail_client.close()
        except (ConnectionClosedError, ProtocolError, OSError):
            pass
        try:
            with DatabaseClient(host, port) as cleanup:
                cleanup.change_stream(subscriber, unsubscribe=True)
        except (RemoteError, ConnectionClosedError, OSError) as exc:
            print(f"warning: could not unsubscribe {subscriber!r}: {exc}",
                  file=sys.stderr)


def cmd_shell(args: argparse.Namespace) -> int:
    from repro.errors import ConnectionClosedError, RemoteError
    from repro.server import DatabaseClient

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(f"error: --connect needs HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    client = DatabaseClient(host, int(port))
    print(f"connected to {host}:{port} "
          f"(schema {client.session.get('schema')}, "
          f"session {client.session.get('session_id')})")
    print("type MQL and press enter; \\q quits, \\explain Q profiles Q, "
          "\\stream Q fetches Q through a cursor, \\tail [TYPE] follows "
          "the change stream")
    try:
        while True:
            try:
                line = input("mql> ").strip()
            except EOFError:
                break
            if not line:
                continue
            if line in ("\\q", "quit", "exit"):
                break
            try:
                if line == "\\tail" or line.startswith("\\tail "):
                    type_name = line[len("\\tail"):].strip() or None
                    _shell_tail(host, int(port),
                                client.session.get("session_id"),
                                type_name)
                    continue
                if line.startswith("\\explain "):
                    body = client.explain(line[len("\\explain "):])
                elif line.startswith("\\stream "):
                    cursor = client.query_stream(line[len("\\stream "):])
                    count = 0
                    for entry in cursor:
                        start, end = entry["valid"]
                        cells = (entry.get("row")
                                 or entry.get("molecule") or {})
                        print(f"  root {entry['root_id']} "
                              f"[{start},{end}): {cells}")
                        count += 1
                    print(f"-- {count} "
                          f"entr{'y' if count == 1 else 'ies'} streamed "
                          f"({cursor.chunk_entries}/chunk), "
                          f"plan: {cursor.plan}")
                    continue
                else:
                    body = client.query(line)
            except RemoteError as exc:
                print(f"error: {exc}")
                continue
            except ConnectionClosedError as exc:
                print(f"connection lost: {exc}", file=sys.stderr)
                return 1
            for entry in body["entries"]:
                start, end = entry["valid"]
                cells = entry.get("row") or entry.get("molecule") or {}
                print(f"  root {entry['root_id']} [{start},{end}): {cells}")
            print(f"-- {len(body['entries'])} "
                  f"entr{'y' if len(body['entries']) == 1 else 'ies'}, "
                  f"plan: {body['plan']}")
            if "profile" in body:
                from repro.obs.profile import render_profile_dict
                print(render_profile_dict({"plan": body["plan"],
                                           **body["profile"]}))
    finally:
        client.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Temporal complex-object database tools")
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="describe a database")
    info.add_argument("db")
    info.set_defaults(handler=cmd_info)

    stats = commands.add_parser("stats", help="print database statistics")
    stats.add_argument("db")
    stats.set_defaults(handler=cmd_stats)

    query = commands.add_parser("query", help="run a temporal MQL query")
    query.add_argument("db")
    query.add_argument("mql")
    query.set_defaults(handler=cmd_query)

    profile = commands.add_parser(
        "profile", help="run a query under EXPLAIN ANALYZE")
    profile.add_argument("db")
    profile.add_argument("mql")
    profile.add_argument("--json", action="store_true",
                         help="emit profile and metrics snapshot as JSON")
    profile.set_defaults(handler=cmd_profile)

    history = commands.add_parser("history",
                                  help="print an atom's bitemporal record")
    history.add_argument("db")
    history.add_argument("atom_id", type=int)
    history.set_defaults(handler=cmd_history)

    timeline = commands.add_parser(
        "timeline", help="print an atom's coalesced timeline")
    timeline.add_argument("db")
    timeline.add_argument("atom_id", type=int)
    timeline.set_defaults(handler=cmd_timeline)

    verify = commands.add_parser("verify", help="check database integrity")
    verify.add_argument("db")
    verify.set_defaults(handler=cmd_verify)

    vacuum = commands.add_parser(
        "vacuum", help="remove versions superseded before a cutoff")
    vacuum.add_argument("db")
    vacuum.add_argument("--before-tt", type=int, required=True)
    vacuum.set_defaults(handler=cmd_vacuum)

    dump = commands.add_parser("dump", help="export content as JSON")
    dump.add_argument("db")
    dump.add_argument("-o", "--output")
    dump.set_defaults(handler=cmd_dump)

    load = commands.add_parser(
        "load", help="create a database from a dump (migration path)")
    load.add_argument("db", help="target directory (must not exist)")
    load.add_argument("dump_file")
    load.add_argument("--strategy",
                      choices=[s.value for s in VersionStrategy])
    load.set_defaults(handler=cmd_load)

    serve = commands.add_parser(
        "serve", help="serve a database over TCP")
    serve.add_argument("--path", required=True,
                       help="database directory to serve")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7042)
    serve.add_argument("--max-connections", type=int, default=32)
    serve.add_argument("--max-inflight", type=int, default=8)
    serve.add_argument("--max-queued", type=int, default=32)
    serve.add_argument("--request-timeout", type=float, default=10.0)
    serve.add_argument("--slow-query-ms", type=float, default=250.0)
    serve.add_argument("--idle-timeout", type=float, default=300.0)
    serve.add_argument("--worker-threads", type=int, default=None,
                       help="request-executor threads (default: "
                            "max-inflight plus headroom)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="serve /metrics, /health, /stats over HTTP "
                            "on this port (0 = ephemeral)")
    serve.add_argument("--event-log", default=None, metavar="FILE",
                       help="append structured events to FILE as JSON "
                            "lines")
    serve.add_argument("--replica-of", default=None, metavar="HOST:PORT",
                       help="run as a read-only replica: ship and "
                            "replay the WAL of the primary at HOST:PORT")
    serve.add_argument("--replica-id", default=None,
                       help="stable replica identity for the primary's "
                            "subscription registry (default: persisted "
                            "generated id)")
    serve.add_argument("--replica-checkpoint-interval", type=float,
                       default=5.0, metavar="SECONDS",
                       help="how often the replica advances its durable "
                            "watermark (and ack) via checkpoint")
    serve.set_defaults(handler=cmd_serve)

    shell = commands.add_parser(
        "shell", help="interactive MQL shell against a running server")
    shell.add_argument("--connect", required=True, metavar="HOST:PORT")
    shell.set_defaults(handler=cmd_shell)

    tail = commands.add_parser(
        "tail", help="follow a server's change-data-capture stream")
    tail.add_argument("--connect", required=True, metavar="HOST:PORT")
    tail.add_argument("--subscriber", default="tail-cli",
                      help="cursor name; reusing it resumes after the "
                           "last acked event")
    tail.add_argument("--type", action="append", metavar="TYPE",
                      help="only events touching this atom type "
                           "(repeatable)")
    tail.add_argument("--kind", action="append", metavar="KIND",
                      help="only this event kind, e.g. atom_created "
                           "(repeatable)")
    tail.add_argument("--root", action="append", type=int, metavar="ID",
                      help="only events touching this atom id "
                           "(repeatable)")
    tail.add_argument("--from-lsn", type=int, default=None,
                      help="explicit start LSN (default: resume from "
                           "the persisted ack, or attach at the head)")
    tail.add_argument("--count", type=int, default=0,
                      help="stop after N events (default: follow "
                           "forever)")
    tail.add_argument("--json", action="store_true",
                      help="one JSON object per event")
    tail.set_defaults(handler=cmd_tail)

    monitor = commands.add_parser(
        "monitor", help="live top-like view of a running server")
    monitor.add_argument("--connect", required=True, metavar="HOST:PORT")
    monitor.add_argument("--interval", type=float, default=2.0,
                         help="seconds between refreshes")
    monitor.add_argument("--events", type=int, default=8,
                         help="structured event-log entries to show")
    monitor.add_argument("--once", action="store_true",
                         help="print one frame and exit (for scripts)")
    monitor.set_defaults(handler=cmd_monitor)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
