"""nadlint: the repo's C++-aware invariant linter (DESIGN.md §15).

Run it as `PYTHONPATH=scripts python3 -m nadlint` (ctest, CI's lint
job). A comment/string/raw-string/preprocessor-aware tokenizer
(tokenizer.py) and a lightweight per-file scope + symbol model
(model.py) feed rule passes that plain regexes fundamentally cannot
express — arena-escape (lifetime.py), lock-order against the
machine-readable DESIGN.md §12 manifest lock_order.json (locks.py),
and tsa-coverage (tsa.py) — alongside the five original mechanical
rules migrated onto the token stream (rules.py). Findings can be
emitted as SARIF 2.1.0 for GitHub code scanning (sarif.py).

Entry point: engine.main() (also `python3 -m nadlint`).
"""

__version__ = "2.0"
