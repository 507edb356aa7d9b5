"""One fresh-interpreter run of the ``ris-secrecy`` CLI, as launched by run.py.

    python3 child.py STAMP [--setup-only | --trace OUT] -- <ris-secrecy arguments>
    python3 child.py STAMP --kernels OUT

Set-up is importing ``ris_secrecy.cli`` and resolving the run's config. When
it is done the child writes STAMP (a JSON object with the CLOCK_MONOTONIC
time and the process CPU time at that instant), so that the parent can split
its own outside measurement into set-up and run. At exit it writes its peak
resident memory to STAMP.exit. It then hands the arguments
to ``ris_secrecy.cli.main`` and exits with its return code, exactly like the
console script; an uncaught exception ends it with a traceback and exit 1.

``--trace OUT`` wraps the package's public functions before the command runs
and writes per-function call counts and times to OUT. ``--kernels OUT`` times
the scalar kernels on fixed argument grids instead of running a command.
"""
import atexit
import inspect
import json
import math
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _write_peak_rss(path) -> None:
    # VmHWM covers this program image only. ru_maxrss would also count the
    # launching process, whose memory the child shares until it execs.
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"peak_rss_kb": kb}, fh)


# (layer, module, function). Each function is wrapped under every name a
# module of the package binds it to, so the call sites that look it up
# (``secrecy.link_mgf``, ``montecarlo.sample_gain_sums``, the ``from``
# imports in ``cli``) all see the wrapper. A name the package no longer has
# is reported as absent.
HOOKS = (
    ("cli", "cli", "main"),
    ("cli", "cli", "run_point"),
    ("cli", "cli", "_point"),
    ("secrecy", "secrecy", "asc_exact"),
    ("secrecy", "secrecy", "secrecy_report"),
    ("secrecy", "secrecy", "avg_capacity"),
    ("secrecy", "secrecy", "link_mgf"),
    ("secrecy", "secrecy", "asc_approx"),
    ("secrecy", "secrecy", "sop"),
    ("specfun", "specfun", "integrate_semi_infinite"),
    ("channels", "channels", "mgf_triple_cascade"),
    ("channels", "channels", "mgf_double_rayleigh"),
    ("channels", "channels", "moments"),
    ("channels", "channels", "sample"),
    ("montecarlo", "montecarlo", "mc_asc"),
    ("montecarlo", "montecarlo", "mc_sop"),
    ("montecarlo", "montecarlo", "mc_gain_sum_stats"),
    ("montecarlo", "montecarlo", "sample_gain_sums"),
)


class Tracer:
    """In-memory spans at the package's layer boundaries.

    Per function it keeps calls and inclusive time; per layer, self time
    (span time not covered by child spans) and outermost time (span time
    not nested in another span of the same layer).
    """

    def __init__(self):
        self.calls = {}
        self.time_s = {}
        self.layer_self_s = {}
        self.layer_outer_s = {}
        self.absent = []
        self.integrand_evals = 0
        self.draws = []
        self._stack = []  # [time in child spans] per open span
        self._depth = {}

    def install(self, package) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for layer, module_name, func in HOOKS:
            module = sys.modules.get(f"{package}.{module_name}")
            key = f"{module_name}.{func}"
            original = getattr(module, func, None) if module is not None else None
            if original is None:
                self.absent.append(key)
                continue
            wrapper = self._wrap(layer, key, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, layer, key, fn):
        self.calls[key] = 0
        self.time_s[key] = 0.0
        self.layer_self_s.setdefault(layer, 0.0)
        self.layer_outer_s.setdefault(layer, 0.0)
        self._depth.setdefault(layer, 0)
        counts_integrand = key == "specfun.integrate_semi_infinite"
        draw_signature = None
        if key == "montecarlo.sample_gain_sums":
            draw_signature = inspect.signature(fn)
            if not {"params", "rng", "n"} <= draw_signature.parameters.keys():
                self.absent.append("montecarlo.sample_gain_sums(params, rng, n)")
                draw_signature = None
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if counts_integrand and args:
                args = (self._counted(args[0]),) + args[1:]
            if draw_signature is not None:
                bound = draw_signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._record_draw(bound.arguments)
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[layer] -= 1
                self.calls[key] += 1
                self.time_s[key] += dt
                self.layer_self_s[layer] += dt - frame[0]
                if depth[layer] == 0:
                    self.layer_outer_s[layer] += dt
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def _counted(self, f):
        def integrand(*args):
            self.integrand_evals += 1
            return f(*args)
        return integrand

    def _record_draw(self, arguments):
        # A block draw is identified by model, cell count, trial count,
        # coupling flags and the generator state, which the block seeding fixes
        # from (seed, block index). p_s, the distances, beta and n_0 only
        # rescale the drawn gains, so they are not part of the identity.
        params, rng, n = arguments["params"], arguments["rng"], int(arguments["n"])
        flags = sorted((k, v) for k, v in arguments.items() if k not in ("params", "rng", "n"))
        self.draws.append((params.model.value, params.n_cells, n, str(flags),
                           str(rng.bit_generator.state)))

    def report(self) -> dict:
        distinct = set(self.draws)
        return {
            "calls": self.calls,
            "time_s": self.time_s,
            "layer_self_s": self.layer_self_s,
            "layer_outer_s": self.layer_outer_s,
            "absent": self.absent,
            "integrand_evals": self.integrand_evals,
            "draws": len(self.draws),
            "distinct_draws": len(distinct),
            "draw_trials": sum(d[2] for d in self.draws),
        }


def _geomspace(lo, hi, n):
    step = math.log(hi / lo) / (n - 1)
    return [lo * math.exp(i * step) for i in range(n)]


def _linspace(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


# name -> (module, function, argument grid, unit scale); the grids span each
# kernel's working range and are fixed, so per-call times compare across runs.
KERNEL_CASES = (
    ("bessel_k0_ns", "specfun", "bessel_k0", _geomspace(1e-6, 630.0, 4000), 1e9),
    ("hyp2f1_special_ns", "specfun", "hyp2f1_special", _linspace(-1.0, 0.99999, 4000), 1e9),
    ("erf_ns", "specfun", "erf", _linspace(-6.0, 6.0, 8000), 1e9),
    ("mgf_double_rayleigh_ns", "channels", "mgf_double_rayleigh", _geomspace(1e-3, 1e4, 4000), 1e9),
    ("mgf_triple_cascade_us", "channels", "mgf_triple_cascade", _geomspace(1e-3, 1e4, 60), 1e6),
)
KERNEL_REPEATS = 5


def time_kernels(package) -> dict:
    """Best-of-N per-call time of each scalar kernel through its public wrapper."""
    out = {"per_call": {}, "absent": []}
    for name, module_name, func, grid, unit in KERNEL_CASES:
        fn = getattr(sys.modules.get(f"{package}.{module_name}"), func, None)
        if fn is None:
            out["absent"].append(f"{module_name}.{func}")
            continue
        best = math.inf
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            for x in grid:
                fn(x)
            best = min(best, time.perf_counter() - t0)
        out["per_call"][name] = best / len(grid) * unit
    return out


def main(argv) -> int:
    stamp_path = argv[0]
    atexit.register(_write_peak_rss, stamp_path + ".exit")
    opts = argv[1:argv.index("--")] if "--" in argv else argv[1:]
    cli_argv = argv[argv.index("--") + 1:] if "--" in argv else []
    t0 = time.perf_counter()
    import ris_secrecy
    from ris_secrecy import cli
    import_s = time.perf_counter() - t0
    config_s = 0.0
    if cli_argv:
        t0 = time.perf_counter()
        with open(cli_argv[cli_argv.index("--config") + 1], encoding="utf-8") as fh:
            cli.build_run_config(json.load(fh))
        config_s = time.perf_counter() - t0
    with open(stamp_path, "w", encoding="utf-8") as fh:
        json.dump({"setup_ns": time.monotonic_ns(), "setup_cpu_s": _cpu_s(),
                   "import_s": import_s, "config_s": config_s,
                   "package_file": ris_secrecy.__file__,
                   "backend": getattr(ris_secrecy, "backend", lambda: "unknown")()}, fh)
    if "--setup-only" in opts:
        return 0
    if "--kernels" in opts:
        with open(opts[opts.index("--kernels") + 1], "w", encoding="utf-8") as fh:
            json.dump(time_kernels("ris_secrecy"), fh)
        return 0
    if "--trace" not in opts:
        return cli.main(cli_argv)
    tracer = Tracer()
    tracer.install("ris_secrecy")
    try:
        return cli.main(cli_argv)
    finally:
        with open(opts[opts.index("--trace") + 1], "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
