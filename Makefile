# Developer conveniences; CI runs the same commands (see
# .github/workflows/ci.yml).

.PHONY: lint format test baseline loc

# Style (ruff, skipped where not installed) plus the repo's own
# invariant linter — rng determinism, iteration order, fork safety,
# two-phase budget accounting, async hygiene (README "Static analysis").
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check . && ruff format --check .; \
	else \
		echo "ruff not installed; skipping style checks"; \
	fi
	PYTHONPATH=src python -m repro lint src

format:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff format .; \
	else \
		echo "ruff not installed; nothing to format"; \
	fi

test:
	PYTHONPATH=src python -m pytest -x -q

# Regenerate lint-baseline.json from the current findings.  Only for
# adopting a new rule over legacy code — new findings should be fixed
# or pragma-annotated, not baselined.
baseline:
	PYTHONPATH=src python -m repro lint src --write-baseline

# Python line count of src/ (each change reports it; CI's repro-lint job
# prints it in every run's log).
loc:
	@printf 'src/ Python lines: '
	@find src -name '*.py' -print0 | xargs -0 cat | wc -l
