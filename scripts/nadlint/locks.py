"""lock-order: statically checks every nested scoped `MutexLock`
acquisition sequence against the DESIGN.md §12 hierarchy, which lives
in machine-readable form in lock_order.json.

Why this exists: Clang Thread Safety Analysis proves lock *pairing* and
GUARDED_BY access, but the repo's acquisition *order* was prose — and
the GCC half of the CI matrix compiles the annotations to nothing, so a
§12 inversion introduced on a GCC-only branch reaches TSan (maybe) or
production (definitely). This pass needs no compiler: within each
function body it tracks the brace scopes of scoped MutexLock guards and
resolves each locked expression to a manifest rank — bare fields
resolve through the enclosing class (in-class bodies and out-of-line
`Class::Method` definitions alike), `obj.mu` / `obj->mu` through the
declared type of the local or parameter when the scope model knows it.
Acquiring a lock of rank <= an already-held known rank is an inversion
finding. Unknown locks (ad-hoc waiter/test mutexes) have no rank and
are ignored; lambda bodies are separate execution contexts and start
with an empty held set.

Deliberately out of scope: explicit Lock()/Unlock() pairs (TSA checks
their pairing) and inter-procedural holds (a REQUIRES-annotated callee
is the TSA side's job).

The companion pass `lock-manifest` keeps the manifest honest against
DESIGN.md §12: every hierarchy-table row must have a manifest entry of
the same rank, and every manifest rank must appear in the table.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from .base import Finding, RuleContext
from .model import Scope, local_types

MUTEXLOCK_RE = re.compile(r"\bMutexLock\s+\w+\s*[({]\s*([^;]*?)\s*[)}]\s*;")


@dataclass(frozen=True)
class LockEntry:
    rank: int
    name: str
    classes: tuple[str, ...]  # empty = any owner
    design: str


class LockManifest:
    def __init__(self, entries: list[LockEntry]):
        self.entries = entries
        self.interesting_classes = {c for e in entries for c in e.classes}

    @staticmethod
    def load(path: Path) -> "LockManifest":
        data = json.loads(path.read_text())
        entries = [
            LockEntry(rank=int(e["rank"]), name=e["name"],
                      classes=tuple(e.get("classes", [])),
                      design=e.get("design", e["name"]))
            for e in data["locks"]
        ]
        return LockManifest(entries)

    def resolve(self, field: str, owner_class: str) -> LockEntry | None:
        """Rank of mutex field `field` owned by `owner_class` ('' if
        unknown). A class-constrained entry only matches its classes; an
        unconstrained entry matches any owner."""
        for e in self.entries:
            if e.name != field:
                continue
            if not e.classes or owner_class in e.classes:
                return e
        return None


def _lock_field_and_owner(expr: str, enclosing_class: str,
                          locals_map: dict[str, str]) -> tuple[str, str]:
    """Splits a MutexLock argument into (field name, owner class name).

    `mu_`            → (mu_, <enclosing class>)
    `this->mu_`      → (mu_, <enclosing class>)
    `s.mu`/`s->mu`   → (mu, type of local `s` if declared, else '')
    `a[i].mu`        → (mu, element type of `a` if declared, else '')
    """
    expr = expr.strip()
    expr = re.sub(r"^\*", "", expr)  # MutexLock l(*pmu) — rare
    m = re.match(r"^(?:this\s*->\s*)?([A-Za-z_]\w*)$", expr)
    if m:
        return m.group(1), enclosing_class
    m = re.match(r"^([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:\.|->)\s*"
                 r"([A-Za-z_]\w*)$", expr)
    if m:
        base, field = m.group(1), m.group(2)
        return field, locals_map.get(base, "")
    # Longer chains (a->b.mu): resolve by the last component only, owner
    # unknown — matches only unconstrained manifest entries.
    m = re.search(r"([A-Za-z_]\w*)$", expr)
    return (m.group(1) if m else expr), ""


def _scan_function(ctx: RuleContext, scope: Scope,
                   manifest: LockManifest) -> list[Finding]:
    findings: list[Finding] = []
    ft = ctx.ft
    end = scope.end_line if scope.end_line >= 0 else ft.nlines() - 1
    # Child lambdas/classes/functions are separate contexts.
    barriers = [(c.start_line, c.end_line if c.end_line >= 0 else end, c)
                for c in scope.children
                if c.kind in ("lambda", "class", "function")]
    locals_map = local_types(ctx.ft, scope, manifest.interesting_classes)

    held: list[tuple[int, LockEntry, int]] = []  # (depth, entry, line0)
    depth = 0
    ln = scope.start_line
    col = 0
    while ln <= end:
        inner = next((b for b in barriers if b[0] <= ln <= b[1]), None)
        if inner is not None and ln > scope.start_line:
            ln = inner[1] + 1
            col = 0
            continue
        line = ft.code[ln]
        if ft.is_pp[ln]:
            ln += 1
            continue
        # Acquisitions declared on this line (the guard lives until the
        # closing brace of the *current* depth).
        for m in MUTEXLOCK_RE.finditer(line):
            field, owner = _lock_field_and_owner(
                m.group(1), scope.class_name, locals_map)
            entry = manifest.resolve(field, owner)
            if entry is None:
                continue  # ad-hoc lock outside the hierarchy
            for (_, held_entry, held_ln) in held:
                if held_entry.rank >= entry.rank and \
                        not ctx.allowed(ln, "lock-order"):
                    findings.append(ctx.finding(
                        ln, "lock-order",
                        f"acquires '{entry.design}' (rank {entry.rank}) "
                        f"while holding '{held_entry.design}' (rank "
                        f"{held_entry.rank}, line {held_ln + 1}); the §12 "
                        "hierarchy only allows strictly descending "
                        "acquisition (lock_order.json)"))
                    break
            held.append((depth, entry, ln))
        # Brace tracking after recording (a `{ MutexLock...` on one line
        # puts the guard inside that brace: count opens first).
        for c in line[col:]:
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                held = [h for h in held if h[0] < depth + 1]
                if depth <= 0 and ln > scope.start_line:
                    break
        ln += 1
        col = 0
    return findings


def check_lock_order(ctx: RuleContext) -> list[Finding]:
    manifest = ctx.manifest
    if manifest is None:
        return []
    findings: list[Finding] = []
    for scope in ctx.scopes.walk():
        if scope.kind not in ("function", "lambda"):
            continue
        findings.extend(_scan_function(ctx, scope, manifest))
    return findings


# --- manifest ↔ DESIGN.md §12 coverage -------------------------------

_ROW_RE = re.compile(r"^\|\s*(\d+)\s*\|(.+?)\|")
_SPAN_RE = re.compile(r"`([^`]+)`")


def check_manifest_coverage(design_md: Path,
                            manifest: LockManifest) -> list[Finding]:
    """Tree-mode pass: every §12 hierarchy row must map to a manifest
    entry of the same rank, and every manifest rank must exist in the
    table. Reported against DESIGN.md / lock_order.json."""
    findings: list[Finding] = []
    try:
        text = design_md.read_text(errors="replace")
    except OSError:
        return [Finding(str(design_md), 1, "lock-manifest",
                        "cannot read DESIGN.md to cross-check the lock "
                        "manifest")]
    rows: dict[int, tuple[int, list[str]]] = {}  # rank → (line, spans)
    in_section = False
    for i, line in enumerate(text.splitlines()):
        if line.startswith("## "):
            in_section = line.startswith("## 12.")
        if not in_section:
            continue
        m = _ROW_RE.match(line.strip())
        if not m:
            continue
        rank = int(m.group(1))
        spans = [s for s in _SPAN_RE.findall(m.group(2))
                 if re.search(r"mu_?\b|Mutex", s)]
        if spans:
            rows[rank] = (i + 1, spans)
    if not rows:
        return [Finding("DESIGN.md", 1, "lock-manifest",
                        "could not locate the §12 lock-hierarchy table; "
                        "the lock-order manifest cannot be cross-checked")]
    by_rank: dict[int, list[LockEntry]] = {}
    for e in manifest.entries:
        by_rank.setdefault(e.rank, []).append(e)
    for rank, (line, spans) in sorted(rows.items()):
        entries = by_rank.get(rank, [])
        if not entries:
            findings.append(Finding(
                "DESIGN.md", line, "lock-manifest",
                f"§12 hierarchy row rank {rank} ({', '.join(spans)}) has "
                "no entry in scripts/nadlint/lock_order.json"))
            continue
        names = {e.name for e in entries}
        covered = any(
            span.split("::")[-1].strip() in names for span in spans)
        if not covered:
            findings.append(Finding(
                "DESIGN.md", line, "lock-manifest",
                f"no lock_order.json entry of rank {rank} matches the §12 "
                f"row's lock name(s) {', '.join(spans)}"))
    for rank in sorted(by_rank):
        if rank not in rows:
            findings.append(Finding(
                "scripts/nadlint/lock_order.json", 1, "lock-manifest",
                f"manifest entry rank {rank} "
                f"({by_rank[rank][0].design}) does not appear in the "
                "DESIGN.md §12 hierarchy table"))
    return findings
