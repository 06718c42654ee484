"""Run one benchmark operation in this fresh process and report it.

    python3 benchmark/op.py '<operation JSON>' <trace 0|1>

The operation is one dict from workloads.py, plus "outdir" for table files.
The process imports synto from the checkout's src/, notes when the import
finished, runs the operation, and prints one JSON line:

    imported_ns  time.monotonic_ns() once every synto module is imported
    op_ns        first call into synto to the operation's last output,
                 less the time spent timing calibrate() during it
    cal_ns       the mean time of calibrate() over the run of this process
    rss_kb       peak resident set of this process
    output       what checks.py needs to judge the operation
    spans, calls per-layer totals (traced runs only)

CLOCK_MONOTONIC is system-wide on Linux, so the parent subtracts the time it
spawned this process from imported_ns to get the set-up time.  The parent
divides every time by cal_ns, so that a machine whose speed drifts while it
is shared reports the same work as the same time (see run.py).  calibrate()
runs ten times before the operation, once per 25 ms of CPU time during it
(from a SIGPROF timer, see Speedometer) and ten times after it.

With trace 1, public functions are replaced in the synto modules' namespaces
by wrappers that add up their time, so nothing in src/synto changes.  Spans
nest (einfty holds derive_differentials, which holds right_unit; run_to_stable
holds turn_page), and each total is inclusive.
"""

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import synto.cli  # noqa: E402  (imports every layer of synto)

IMPORTED_NS = time.monotonic_ns()

from synto import chart, cli, fgl, linalg, spectral, summand  # noqa: E402

# (module, attribute, span): the calls a traced run times.  A function is
# wrapped in every namespace it is called through.
WRAPPED = (
    (summand, "derive_differentials", "summand.derive_differentials"),
    (fgl, "right_unit_t", "fgl.right_unit"),
    (summand, "right_unit_t", "fgl.right_unit"),
    (cli, "right_unit_t", "fgl.right_unit"),
    (summand, "p_series", "fgl.p_series"),
    (cli, "p_series", "fgl.p_series"),
    (summand, "build_page", "spectral.build_page"),
    (cli, "build_page", "spectral.build_page"),
    (summand, "run_to_stable", "spectral.run_to_stable"),
    (cli, "run_to_stable", "spectral.run_to_stable"),
    (spectral, "turn_page", "spectral.turn_page"),
    (cli, "parse_presentation", "cli.parse_presentation"),
)


class Spans:
    """Inclusive time and call count per span name, kept in memory."""

    def __init__(self, enabled: bool, clock=time.monotonic_ns):
        self.enabled = enabled
        self.clock = clock
        self.ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def add(self, name: str, ns: int) -> None:
        self.ns[name] = self.ns.get(name, 0) + ns
        self.calls[name] = self.calls.get(name, 0) + 1

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        t0 = self.clock()
        try:
            yield
        finally:
            self.add(name, self.clock() - t0)

    def wrap_all(self) -> None:
        for module, attr, name in WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._timed(fn, name))

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _timed(self, fn, name):
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return timed


def run_table(op: dict, spans: Spans) -> dict:
    """What scripts/run_all_primes.py does for one prime, plus the ASCII
    chart.  The E-infinity pages are computed first through the public
    functions, so that syntomic_table then times only the assembly."""
    p, outdir = op["p"], Path(op["outdir"])
    win = summand.default_table_window(p)
    with spans.span("summand.einfty"):
        summand.tp_einfty(p, win[:2])
        summand.tcminus_einfty(p, win[:2])
    with spans.span("summand.assembly"):
        table = summand.syntomic_table(p)
    with spans.span("summand.checks"):
        hodge_tate = summand.hodge_tate_check(p).ok
        v2 = summand.v2_bockstein_check(p, table=table).collapses
        motivic = summand.motivic_collapse_check(p, table=table).collapses
    with spans.span("chart.render"):
        texts = {"json": json.dumps(table.to_json_dict(), indent=1) + "\n",
                 "csv": table.to_csv(),
                 "svg": chart.svg_chart(table),
                 "txt": chart.ascii_chart(table)}
        for ext, text in texts.items():
            (outdir / f"table-p{p}.{ext}").write_text(text, encoding="utf-8")
    return {"json": texts["json"], "csv": texts["csv"],
            "svg_chars": len(texts["svg"]), "txt_chars": len(texts["txt"]),
            "hodge_tate": hodge_tate, "v2_bockstein": v2, "motivic": motivic}


def run_cli(argv: list[str]) -> dict:
    """`synto <argv>` in this process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return {"status": status, "stdout": buf.getvalue()}


def run_op(op: dict, spans: Spans) -> dict:
    if op["kind"] == "table":
        return run_table(op, spans)
    if op["kind"] == "ss":
        return run_cli(["ss", "--file", op["file"]])
    if op["kind"] == "fgl":
        return run_cli(["fgl", op["series"], "--prime", str(op["p"]),
                        "--trunc", str(op["trunc"]), "--format", "json"])
    raise ValueError(f"unknown operation kind {op['kind']!r}")


def kernel_probe(path: str, spans: Spans) -> None:
    """Time kernel_basis on the matrix of the first d_r out of the largest
    E_1 bidegree, assembled with the Leibniz rule."""
    text = Path(path).read_text(encoding="utf-8")
    p, pres, spec, window = cli.parse_presentation(text)
    page = spectral.build_page(pres, window)
    (deg, wt), data = min(page.data.items(),
                          key=lambda kv: (-len(kv[1].monos), kv[0]))
    r = spec.pages[0]
    dd, dw = spec.rule.shift(r)
    target = page.data.get((deg + dd, wt + dw))
    index = target.index if target is not None else {}
    cols = []
    for mono in data.monos:
        image = spectral.leibniz_extend(spec, r, mono) or {}
        cols.append({index[m]: c for m, c in image.items() if m in index})
    with spans.span("linalg.kernel_basis"):
        linalg.kernel_basis(p, cols)


def calibrate() -> int:
    """Time, in ns, of a fixed piece of pure-Python work of the kind synto
    does: a sparse product of dicts keyed by exponent tuples, modulo a
    prime.  It takes about 2.4 ms on a 2-vCPU VM at its usual speed.  It is
    timed on the wall clock, as the operation is; this VM's CPU-time clock
    ticks only every 4 ms."""
    t0 = time.monotonic_ns()
    p = 1000003
    a = {(i, j): (7 * i + j) % p for i in range(140) for j in range(3)}
    b = {(i, j): (5 * i + 3 * j + 1) % p for i in range(4) for j in range(3)}
    out: dict[tuple[int, int], int] = {}
    for (i, j), x in a.items():
        for (k, m), y in b.items():
            key = (i + k, j + m)
            out[key] = (out.get(key, 0) + x * y) % p
    return time.monotonic_ns() - t0


class Speedometer:
    """Samples calibrate() while the operation runs, from a SIGPROF handler
    every 25 ms of CPU time.  The host's speed changes within a second, so
    samples taken only before and after a 1 s operation miss what it met.
    now() is the wall clock less the time spent in the handler, so the
    sampling is left out of every time measured with it."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self._handler_ns = 0

    def now(self) -> int:
        return time.monotonic_ns() - self._handler_ns

    def sample(self, times: int) -> None:
        for _ in range(times):
            self.samples.append(calibrate())

    def _tick(self, _signum, _frame) -> None:
        t0 = time.monotonic_ns()
        self.samples.append(calibrate())
        self._handler_ns += time.monotonic_ns() - t0

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, 0.025, 0.025)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)


def main() -> int:
    op = json.loads(sys.argv[1])
    speed = Speedometer()
    spans = Spans(sys.argv[2] == "1", clock=speed.now)
    if spans.enabled:
        spans.wrap_all()
    speed.sample(10)
    speed.start()
    t0 = speed.now()
    output = run_op(op, spans)
    op_ns = speed.now() - t0
    speed.stop()
    speed.sample(10)
    cal_ns = statistics.fmean(speed.samples)
    if spans.enabled:
        spans.unwrap_all()
        if op["kind"] == "ss":
            kernel_probe(op["file"], spans)
    print(json.dumps({
        "imported_ns": IMPORTED_NS, "op_ns": op_ns, "cal_ns": cal_ns,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "output": output, "spans": spans.ns, "calls": spans.calls}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
