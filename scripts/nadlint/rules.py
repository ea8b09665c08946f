"""The five original mechanical rules (raw-mutex, no-sleep,
ignored-status, opcode-switch, hot-alloc), migrated from raw-line
regexes onto the tokenizer's channels.

What migration buys: every pattern now matches on the code channel
(comments and literal contents blanked), and every directive
(lint-allow, hot-path-begin/end) is read from the comment channel — so
a `std::mutex` in a block comment, a "sleep_for" in a log string, or a
hot-path marker smuggled into a string literal can neither raise nor
suppress a finding. The rule semantics themselves are unchanged and the
original fixture corpus passes byte-for-byte.
"""

from __future__ import annotations

import re

from .base import Finding, RuleContext

RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:recursive_|shared_|timed_)*mutex\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|\bstd::condition_variable(?:_any)?\b"
)
SLEEP_RE = re.compile(r"\b(?:sleep_for|sleep_until|system_clock)\b")
# A statement line that begins with a must-check call: nothing consumes
# the result. Assignments ("auto x = Decode..."), returns, conditions and
# explicit "(void)Decode..." discards all fail this anchor on purpose.
IGNORED_STATUS_RE = re.compile(
    r"^\s*(?:[\w]+(?:::[\w]+)*::)?"
    r"(?:Decode[A-Z]\w*|Encode\w*Checked|ParseEndpoint)\s*\("
)
# Heap-allocating constructions and materializing codec calls that must
# not appear inside a marked hot section. std::string_view is NOT matched
# (\b fails before the _); DecodeMessageView is NOT matched (the paren
# must follow immediately). Value( catches the Value = std::string alias.
HOT_ALLOC_RE = re.compile(
    r"\bstd::string\b"
    r"|\bstd::vector\s*<"
    r"|\bstd::deque\b"
    r"|\bstd::to_string\b"
    r"|\bnew\s+[A-Za-z_]"
    r"|\bValue\s*\("
    r"|\bEncodeMessage\w*\s*\("
    r"|\bDecodeMessage\s*\("
)
HOT_BEGIN_RE = re.compile(r"hot-path-begin\((?P<name>[\w-]+)\)")
HOT_END_RE = re.compile(r"hot-path-end\b")
CASE_RE = re.compile(r"\bcase\s+(?:nad::)?MsgType::(\w+)")

# Files where no-sleep may not be suppressed: event-driven by design.
STRICT_NO_SLEEP = {"src/sim/explorer.cc"}


def in_no_sleep_scope(p: str) -> bool:
    # The retry/backoff path may never raw-sleep: a sleeping thread
    # cannot be interrupted by shutdown, while a CondVar deadline wait
    # can; an event loop (the client's and the server's, and the
    # connection core both run in protocol.*) sleeps only inside
    # epoll_wait.
    return (
        p.startswith(("src/sim/", "src/core/", "src/faults/"))
        or re.fullmatch(
            r"src/nad/(?:retry|client|event_loop|timer_wheel|server|protocol)"
            r"\.(?:h|cc|cpp|hpp)", p)
        is not None
    )


def switch_spans(code_lines: list[str]):
    """Yields (start_line_0based, body_text) for each switch statement,
    scanning the code channel only."""
    text = "\n".join(code_lines)
    for m in re.finditer(r"\bswitch\s*\(", text):
        start_line = text.count("\n", 0, m.start())
        brace = text.find("{", m.end())
        if brace < 0:
            continue
        depth = 0
        for k in range(brace, len(text)):
            if text[k] == "{":
                depth += 1
            elif text[k] == "}":
                depth -= 1
                if depth == 0:
                    yield start_line, text[brace : k + 1]
                    break


def check_basic(ctx: RuleContext) -> list[Finding]:
    p = ctx.path
    ft = ctx.ft
    findings: list[Finding] = []
    in_common = p.startswith("src/common/")
    no_sleep = in_no_sleep_scope(p)
    in_nad = p.startswith("src/nad/")
    hot_since: int | None = None

    for i in range(ft.nlines()):
        comment = ft.comment[i]
        if HOT_BEGIN_RE.search(comment):
            if hot_since is not None:
                findings.append(ctx.finding(
                    i, "hot-alloc",
                    "nested hot-path-begin (previous section opened at line "
                    f"{hot_since + 1} is still open)"))
            hot_since = i
        elif HOT_END_RE.search(comment):
            hot_since = None
        code = ft.code[i]
        if not code.strip():
            continue
        if hot_since is not None and not ft.is_pp[i] \
                and HOT_ALLOC_RE.search(code):
            if not ctx.allowed(i, "hot-alloc"):
                findings.append(ctx.finding(
                    i, "hot-alloc",
                    "heap-allocating construction or materializing codec "
                    "call inside a hot-path section; use the arena / "
                    "FrameWriter / MessageView machinery (DESIGN.md §14)"))
        if not in_common and not ft.is_pp[i] and RAW_MUTEX_RE.search(code):
            if not ctx.allowed(i, "raw-mutex"):
                findings.append(ctx.finding(
                    i, "raw-mutex",
                    "raw std:: sync primitive; use nadreg::Mutex/MutexLock/"
                    "CondVar from common/sync.h"))
        if no_sleep and not ft.is_pp[i] and SLEEP_RE.search(code):
            strict = p in STRICT_NO_SLEEP
            if strict and ctx.allowed(i, "no-sleep"):
                findings.append(ctx.finding(
                    i, "no-sleep",
                    "lint-allow(no-sleep) is not honoured here: the "
                    "explorer's quiescence detection is event-driven "
                    "(DetFarm scheduler hooks); a wall-clock wait would "
                    "make branching nondeterministic"))
            elif strict or not ctx.allowed(i, "no-sleep"):
                findings.append(ctx.finding(
                    i, "no-sleep",
                    "wall-clock sleep/clock in simulation, algorithm or "
                    "retry code; use the farm's logical time or "
                    "steady_clock with interruptible CondVar waits"))
        if IGNORED_STATUS_RE.match(code):
            if not ctx.allowed(i, "ignored-status"):
                findings.append(ctx.finding(
                    i, "ignored-status",
                    "result of a must-check call is dropped; assign it or "
                    "cast to (void) with a reason"))

    if hot_since is not None:
        findings.append(ctx.finding(
            hot_since, "hot-alloc",
            "hot-path-begin without a matching hot-path-end"))

    if in_nad and ctx.enumerators:
        for start, body in switch_spans(ft.code):
            cases = set(CASE_RE.findall(body))
            if not cases:
                continue  # not a MsgType switch
            missing = [e for e in ctx.enumerators if e not in cases]
            if missing and not ctx.allowed(start, "opcode-switch"):
                findings.append(ctx.finding(
                    start, "opcode-switch",
                    "switch over MsgType does not name: "
                    + ", ".join(missing)))
    return findings
