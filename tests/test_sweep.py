"""Robustness sweep: every identity at 60 seeded draws for seeds 1, 2 and 3
(7464 checks, a minute or two).  Deselected by default; run it with
``python -m pytest -m slow tests/test_sweep.py``."""

import pytest

from qkernel.identities import identity_ids, run_suite

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_draw_passes(seed):
    reports = [r for ident in identity_ids() for r in run_suite([ident], 60, seed)]
    bad = [(r.id, r.label, r.status, r.rel_err, r.reason) for r in reports if r.status != "pass"]
    assert not bad
