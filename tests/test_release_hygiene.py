"""Release hygiene: importability, docstrings, and documentation accuracy."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import subprocess
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent


def all_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it runs the CLI
        names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("module_name", all_modules())
def test_module_imports_and_is_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    assert len(module.__doc__.strip()) > 20, f"{module_name} docstring too thin"


@pytest.mark.parametrize("module_name", [m for m in all_modules() if m != "repro"])
def test_public_api_is_documented(module_name):
    """Every name a module exports must carry a docstring."""
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        obj = getattr(module, name)
        if isinstance(obj, (int, str, float, tuple, frozenset, dict)):
            continue  # constants document themselves via the module
        assert getattr(obj, "__doc__", None), f"{module_name}.{name} undocumented"


class TestDocsReferenceRealFiles:
    DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md"] + [
        f"docs/{p.name}" for p in (REPO / "docs").glob("*.md")
    ]

    @pytest.mark.parametrize("doc", DOCS)
    def test_referenced_paths_exist(self, doc):
        text = (REPO / doc).read_text()
        pattern = re.compile(
            r"`((?:src|tests|benchmarks|examples|docs)/[A-Za-z0-9_./-]+"
            r"\.(?:py|md|s|txt))`"
        )
        missing = []
        for match in pattern.finditer(text):
            path = match.group(1)
            if path.startswith("benchmarks/results/"):
                continue  # generated artifacts
            if not (REPO / path).exists():
                missing.append(path)
        assert not missing, f"{doc} references missing files: {missing}"

    def test_readme_names_real_cli_commands(self):
        from repro.cli import build_parser

        parser = build_parser()
        subcommands = set(
            parser._subparsers._group_actions[0].choices  # noqa: SLF001
        )
        readme = (REPO / "README.md").read_text()
        for cmd in re.findall(r"^repro (\w+)", readme, flags=re.MULTILINE):
            assert cmd in subcommands, f"README mentions unknown command {cmd!r}"

    def test_design_experiment_index_bench_files_exist(self):
        text = (REPO / "DESIGN.md").read_text()
        for name in re.findall(r"`benchmarks/(bench_[a-z0-9_]+\.py)`", text):
            assert (REPO / "benchmarks" / name).exists(), name


def tracked_files():
    """``git ls-files`` of the repo; skips the test outside a git checkout."""
    tracked = subprocess.run(
        ["git", "ls-files"], cwd=REPO, capture_output=True, text=True,
    )
    if tracked.returncode != 0:  # not a git checkout (e.g. sdist)
        pytest.skip("not a git checkout")
    return tracked.stdout.splitlines()


def _repro_imports(node):
    """Dotted ``repro.*`` module names one absolute import statement needs.

    ``from P import n`` needs ``P``, and ``P.n`` too when ``n`` is a
    module file on disk (otherwise ``n`` is an attribute of ``P``).
    """
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "repro"]
    if not isinstance(node, ast.ImportFrom) or node.level:
        return []
    base = node.module or ""
    if base.split(".")[0] != "repro":
        return []
    modules = [base]
    for alias in node.names:
        candidate = REPO / "src" / Path(*f"{base}.{alias.name}".split("."))
        if candidate.with_suffix(".py").exists() or candidate.is_dir():
            modules.append(f"{base}.{alias.name}")
    return modules


def _module_is_tracked(module, tracked):
    stem = "src/" + module.replace(".", "/")
    return f"{stem}.py" in tracked or f"{stem}/__init__.py" in tracked


class TestRepoHygiene:
    def test_gitignore_covers_build_artifacts(self):
        """Packaging and cache litter must never reach the index."""
        patterns = (REPO / ".gitignore").read_text().splitlines()
        for required in ("*.egg-info/", "__pycache__/", ".pytest_cache/"):
            assert required in patterns, f".gitignore misses {required}"

    def test_no_build_artifacts_tracked(self):
        """Nothing matching the ignore patterns is committed."""
        litter = [
            line for line in tracked_files()
            if ".egg-info/" in line or "__pycache__/" in line
        ]
        assert not litter, f"build artifacts tracked: {litter}"

    def test_ignore_rules_do_not_swallow_package_dirs(self):
        """``build/`` and ``dist/`` are ignored at the root only.

        An unanchored ``dist/`` rule once matched a package directory of
        the same name, so the package was never committed.
        """
        tracked_files()  # skips outside a git checkout
        package_paths = ["src/repro/campaign/dist/__init__.py",
                         "src/repro/x/build/__init__.py"]
        root_paths = ["dist/repro-0.0.tar.gz", "build/lib/repro/__init__.py"]
        ignored = subprocess.run(
            ["git", "check-ignore", "--no-index", *package_paths, *root_paths],
            cwd=REPO, capture_output=True, text=True,
        ).stdout.split()
        assert not set(ignored) & set(package_paths), ignored
        assert set(root_paths) <= set(ignored), ignored

    def test_machine_local_logs_are_ignored(self):
        """Benchmark runs (tier-1 included, via ``repro figures``) append to
        the manifest log; a tracked copy would leave every clone dirty."""
        tracked_files()  # skips outside a git checkout
        log = "benchmarks/results/manifests.jsonl"
        ignored = subprocess.run(
            ["git", "check-ignore", "--no-index", log],
            cwd=REPO, capture_output=True, text=True,
        ).stdout.split()
        assert ignored == [log]

    def test_repro_imports_resolve_to_tracked_files(self):
        """Every ``repro.*`` import names a module git tracks.

        A module that exists only in a working tree (ignored or never
        added) passes every local run and breaks every fresh clone.
        """
        tracked = set(tracked_files())
        unresolved = []
        for path in sorted(tracked):
            if not (path.endswith(".py")
                    and path.split("/")[0] in ("src", "tests", "benchmarks",
                                               "perfbench")):
                continue
            tree = ast.parse((REPO / path).read_text(), filename=path)
            for node in ast.walk(tree):
                for module in _repro_imports(node):
                    if not _module_is_tracked(module, tracked):
                        unresolved.append(f"{path}:{node.lineno}: {module}")
        assert not unresolved, (
            "imports of modules git does not track:\n" + "\n".join(unresolved)
        )

    def test_makefile_wires_telemetry_smoke_into_test(self):
        text = (REPO / "Makefile").read_text()
        assert "telemetry-smoke:" in text
        assert re.search(r"^test:.*\btelemetry-smoke\b", text, re.MULTILINE)

    def test_makefile_wires_campaign_smoke_into_test(self):
        text = (REPO / "Makefile").read_text()
        assert "campaign-smoke:" in text
        assert re.search(r"^test:.*\bcampaign-smoke\b", text, re.MULTILINE)

    def test_gitignore_covers_campaign_stores(self):
        """Result stores are caches; they must never reach the index."""
        patterns = (REPO / ".gitignore").read_text().splitlines()
        for required in (".repro-campaigns/", ".campaign-smoke/",
                         "benchmarks/results/store/"):
            assert required in patterns, f".gitignore misses {required}"


def test_event_log_builder_stays_inside_the_profiler():
    """``EventArrays`` is the one in-memory event log.

    The profiler appends to plain columns; an ``EventLog`` builder or a
    ``Segment`` object class, defined, imported or exported anywhere in the
    package, is a second in-memory form creeping back in.  (The plain word
    "Segment" in prose stays allowed.)
    """
    src = REPO / "src" / "repro"
    forms = {"EventLog", "Segment"}
    offenders = []
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                names = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {
                    (alias.name.rsplit(".", 1)[-1]) for alias in node.names
                }
            elif isinstance(node, ast.Constant):
                # A name in a package's lazy export table.
                names = {node.value} if isinstance(node.value, str) else set()
            else:
                continue
            for name in sorted(names & forms):
                offenders.append(f"{path.relative_to(src).as_posix()}: {name}")
    assert offenders == [], f"event-log object forms: {offenders}"


def test_only_the_harness_builds_the_transport():
    """One place decides whether the batched transport goes in front of the
    tools (``harness.transport_for``, reading ``batch_beneficial``); a
    second module constructing one is a second decision creeping back in.
    """
    def constructs(path: Path) -> bool:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "BatchingTransport":
                    return True
        return False

    src = REPO / "src" / "repro"
    building = sorted(
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if constructs(path)
    )
    assert building == ["harness.py"], (
        f"modules constructing BatchingTransport: {building}"
    )


def test_memory_batches_have_one_format():
    """The transport delivers memory batches only as runs
    (``on_mem_batch_runs``); a per-access ``on_mem_batch`` or the
    ``batch_accepts_runs`` opt-in would be a second format creeping back.
    """
    retired = {"on_mem_batch", "batch_accepts_runs"}

    def defined_names(path: Path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                for target in targets:
                    yield getattr(target, "id", None) or getattr(
                        target, "attr", None)

    src = REPO / "src" / "repro"
    found = sorted(
        f"{path.relative_to(src).as_posix()}: {name}"
        for path in src.rglob("*.py")
        for name in defined_names(path)
        if name in retired
    )
    assert found == [], f"retired batch hooks defined: {found}"


def test_observer_hooks_belong_to_the_protocol():
    """Every ``on_*`` method a ``BaseObserver`` subclass defines is a
    ``TraceObserver`` member, so a hook that nothing calls any more (a
    tool's leftover batch hook after the transport stopped delivering it)
    fails here by name instead of lingering as dead code.
    """
    from repro.trace.observer import BaseObserver, TraceObserver

    protocol = {name for name in vars(TraceObserver) if name.startswith("on_")}
    classes = {
        obj
        for module_name in all_modules()
        for obj in vars(importlib.import_module(module_name)).values()
        if isinstance(obj, type) and issubclass(obj, BaseObserver)
        and obj.__module__.startswith("repro.")
    }
    assert len(classes) > 5
    stray = sorted(
        f"{cls.__module__}.{cls.__qualname__}.{name}"
        for cls in classes
        for name, value in vars(cls).items()
        if name.startswith("on_") and callable(value)
        and name not in protocol
    )
    assert stray == [], f"observer hooks outside TraceObserver: {stray}"
