"""Source-level checks on the library itself."""
import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import mfresnet

SRC = pathlib.Path(mfresnet.__file__).parent


def test_every_library_definition_is_used_in_the_library():
    """Every function, method and class in src/mfresnet is named somewhere in
    src/mfresnet, so the library holds no code that only tests call.  Import
    aliases (the exports in __init__.py) are not uses."""
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(defined - used)
    assert not unused, f"defined in src/mfresnet but never used there: {unused}"


def test_every_library_parameter_is_read():
    """Every parameter of every function, method and lambda in src/mfresnet
    is read in its body, so a caller that stops reaching a value through it
    leaves no dead parameter behind."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}({name})"
                       for name in params if name not in read]
    assert not unread, f"parameters never read: {unread}"


def test_only_the_cli_writes_files():
    """No library module but cli.py calls open (a builtin or any .open
    method) or imports csv: the experiments return their outputs as lines,
    and the CLI alone writes them."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name) and func.id == "open") or (
                        isinstance(func, ast.Attribute) and func.attr == "open"):
                    found.append(f"{path.name}:{node.lineno} calls open")
            elif isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno} imports csv"
                          for alias in node.names if alias.name.split(".")[0] == "csv"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "csv":
                found.append(f"{path.name}:{node.lineno} imports csv")
    assert not found, found


def _imported_modules(path):
    """The names of the modules that a source file imports, inside functions too."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_library_loads_no_scipy():
    """scipy is a test dependency only: no library module imports it, even
    inside a function, and a fresh `import mfresnet.cli` loads no scipy
    module, so no run pays for importing it."""
    for path in sorted(SRC.glob("*.py")):
        assert not any(name.split(".")[0] == "scipy" for name in _imported_modules(path)), f"{path.name} imports scipy"
    code = "import sys, mfresnet.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_library_starts_no_threads():
    """No library module imports threading or concurrent.futures: on threads
    the units ran slower than in series.  They run in parallel on worker
    processes (multiprocessing), which this check lets pass."""
    found = [f"{path.name} imports {name}" for path in sorted(SRC.glob("*.py"))
             for name in _imported_modules(path)
             if name == "threading" or name.split(".")[0] == "concurrent"]
    assert not found, found


def test_no_command_simulates_outside_its_plan():
    """No run_* function of cli.py calls a routine that simulates paths
    itself: only the units of a command's plan do, so that the cost bound,
    which reads the plan, bounds every simulation the command runs."""
    simulating = {"simulate_particles", "stream_particles", "train", "fixed_point_solve", "estimate_G",
                  "evaluate_Jd", "_reference_cloud"}
    tree = ast.parse((SRC / "cli.py").read_text())
    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("run_")]
    assert len(commands) == 7   # the six commands and run_experiment
    found = [f"{command.name}:{call.lineno} calls {name}" for command in commands
             for call in ast.walk(command) if isinstance(call, ast.Call)
             for name in [getattr(call.func, "id", getattr(call.func, "attr", None))] if name in simulating]
    assert not found, found


# Parameters that each count extractor of benchmarks/tracer.py reads by name
# from the bound arguments of the function it wraps.
TRACER_BINDS = {
    "rng.noise_table": ("root_seed", "particle_ids", "n_steps", "dt", "dim"),
    "params.InitialLaw.sample": ("n", "seed"),
    "sde.simulate_particles": ("samples", "n_steps"),
    "sde.simulate_augmented": ("init_draws", "n_steps"),
    "trainer.train": ("cfg",),
    "fpk.fixed_point_solve": (),
    "fpk.estimate_G": ("n_paths",),
    "measures.fpk_residual": ("path",),
}


def test_benchmark_tracer_targets_resolve():
    """Every function the benchmark tracer wraps still exists under its name,
    and still takes the parameters its count extractor reads, so a rename in
    the library cannot silently break every traced benchmark run."""
    tracer_path = SRC.parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    extracted = set()
    for module_name, functions in tracer.TRACED.items():
        module = importlib.import_module(f"mfresnet.{module_name}")
        for qualname, extract in functions.items():
            target = module
            for part in qualname.split("."):
                assert hasattr(target, part), f"tracer names missing mfresnet.{module_name}.{qualname}"
                target = getattr(target, part)
            assert callable(target), f"mfresnet.{module_name}.{qualname} is not callable"
            if extract is None:
                continue
            key = f"{module_name}.{qualname}"
            extracted.add(key)
            assert key in TRACER_BINDS, f"list the parameters the extractor of {key} reads"
            params = inspect.signature(target).parameters
            missing = [name for name in TRACER_BINDS[key] if name not in params]
            assert not missing, f"{key} lost parameters its tracer extractor reads: {missing}"
    assert extracted == set(TRACER_BINDS), sorted(set(TRACER_BINDS) ^ extracted)
