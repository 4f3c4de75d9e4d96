"""Every key of ``mutate.EQUIVALENT`` is a mutant that the mutation pass
still makes for its module.

A refactor that moves or renames a mutation site changes its key, so the
known equivalent mutant would be reported as a survivor and its stale key
would stay in the table.  This test fails first.
"""

import functools
from pathlib import Path

import pytest

import semcache
from mutate import EQUIVALENT, mutants

PACKAGE = Path(semcache.__file__).parent


@functools.cache
def keys(module: str) -> frozenset[str]:
    source = (PACKAGE / module).read_text(encoding="utf-8")
    return frozenset(key for _, _, key in mutants(source, module))


@pytest.mark.parametrize("key", sorted(EQUIVALENT))
def test_equivalent_mutant_is_still_made(key):
    assert key in keys(key.split(":", 1)[0])
