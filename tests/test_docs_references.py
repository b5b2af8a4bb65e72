"""No doc describes a path that no longer exists.

Over the living documentation — README, DESIGN, EXPERIMENTS, ``docs/``
and the verify skill — every repo path in back-ticks or in a fenced
block exists (a ``*`` must match something), every dotted ``repro.…``
name there imports or resolves as an attribute (a trailing ``*`` is a
prefix), every ``REPRO_*`` environment variable named there is
still read by some code, and ``docs/observability.md`` documents every
trace event of the catalog under the current schema version.  ROADMAP.md, CHANGES.md and
``bench/README.md`` are history / owned by the benchmark and are not
scanned.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
     ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
     *(ROOT / "docs").glob("*.md")])
PATH = re.compile(
    r"(?<![\w/.-])(?:src|tests|tools|docs|bench|benchmarks|examples)/[\w./*-]+")
MODULE = re.compile(r"(?<![\w/.-])repro(?:\.\w+)+\*?")
ENV = re.compile(r"\bREPRO_[A-Z_]+\b")
#: Where an environment variable has to be read: ``environ ... NAME`` on
#: one line, or ``$NAME`` in a workflow.
CODE_DIRS = ("src", "bench", "benchmarks", "tests", ".github")


def quoted(text: str) -> str:
    """The parts of a markdown text that are code: fenced blocks and
    inline back-tick spans."""
    parts = text.split("```")
    spans = parts[1::2]
    for prose in parts[0::2]:
        spans += re.findall(r"`([^`\n]+)`", prose)
    return "\n".join(spans)


def code_text() -> str:
    me = Path(__file__).resolve()
    return "\n".join(
        path.read_text(errors="ignore")
        for top in CODE_DIRS for path in (ROOT / top).rglob("*")
        if path.suffix in (".py", ".yml") and path != me)


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_quoted_path_exists(doc):
    missing = sorted({
        ref for ref in (m.rstrip(".") for m in PATH.findall(quoted(doc.read_text())))
        if not (any(ROOT.glob(ref)) if "*" in ref else (ROOT / ref).exists())})
    assert not missing, f"{doc.relative_to(ROOT)} names paths that do not exist: {missing}"


def resolves(name: str) -> bool:
    """``repro.a.b.c``: the longest importable prefix, then attributes;
    a trailing ``*`` matches any attribute starting with the last part."""
    prefix = name.endswith("*")
    parts = name.rstrip("*").split(".")
    stem = parts[:-1] if prefix else parts
    for i in range(len(stem), 0, -1):
        try:
            obj = importlib.import_module(".".join(stem[:i]))
        except ImportError:
            continue
        break
    for attr in stem[i:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return not prefix or any(n.startswith(parts[-1]) for n in dir(obj))


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_quoted_module_name_resolves(doc):
    missing = sorted({
        name for name in MODULE.findall(quoted(doc.read_text()))
        if not resolves(name)})
    assert not missing, (f"{doc.relative_to(ROOT)} names modules or "
                         f"attributes that do not exist: {missing}")


def test_every_named_switch_is_still_read():
    code = code_text()
    stale = {
        f"{doc.relative_to(ROOT)}: {name}"
        for doc in DOCS for name in ENV.findall(doc.read_text())
        if not re.search(rf"environ[^\n]*\b{name}\b|\${name}\b", code)}
    assert not stale, f"docs name environment variables nothing reads: {sorted(stale)}"


def test_every_catalog_event_is_documented():
    from repro.trace.schema import EVENT_CATALOG, TRACE_SCHEMA_VERSION

    text = (ROOT / "docs" / "observability.md").read_text()
    missing = sorted(name for name in EVENT_CATALOG if f"`{name}`" not in text)
    assert not missing, f"docs/observability.md lacks catalog events: {missing}"
    assert f"`{TRACE_SCHEMA_VERSION}`" in text
