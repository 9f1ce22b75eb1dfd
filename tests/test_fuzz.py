"""Seeded mutation fuzz of the two binary loaders.

One byte in the first 200 of a stored corpus or checkpoint is flipped,
400 times per format.  Every mutant must either load or be rejected
with one of the documented exception types, which the CLI maps to
exit code 2; anything else would reach the user as a traceback.

A checkpoint's structure outside the config block (the tensor count,
every tensor header and the AU trailer) is fuzzed byte by byte and
must always be rejected: the reader accepts only the parameter table.
"""

import math
import struct

import numpy as np
import pytest

from audet.data import load_corpus, store_corpus
from audet.errors import ContractViolation, EmptyCorpusError, FormatError
from audet.model import ModelParams, load_checkpoint, parameter_shapes, save_checkpoint

from conftest import TINY_MODEL

DOCUMENTED = (FormatError, EmptyCorpusError, ContractViolation)
MUTANTS = 400
SPAN = 200


def _escapes(blob: bytes, path, loader, seed: int):
    """(position, exception name) of every mutant that escaped otherwise."""
    rng = np.random.default_rng(seed)
    escaped = []
    for _ in range(MUTANTS):
        pos = int(rng.integers(min(SPAN, len(blob))))
        mutant = bytearray(blob)
        mutant[pos] ^= int(rng.integers(1, 256))
        path.write_bytes(bytes(mutant))
        try:
            loader(path)
        except DOCUMENTED:
            pass
        except Exception as exc:  # the finding this test exists to report
            escaped.append((pos, type(exc).__name__))
    return escaped


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_checkpoints_fail_closed(tmp_path, seed):
    stored = save_checkpoint(ModelParams.init(TINY_MODEL, seed=seed), tmp_path / "m.auck")
    assert _escapes(stored.read_bytes(), tmp_path / "mutant.auck", load_checkpoint, seed) == []


def _structure_offsets(blob: bytes, config) -> list[int]:
    """Offsets of the tensor count, of every tensor header (name length,
    name, rank, extents) and of the AU trailer: every byte after the
    config block that is not a float payload."""
    (cfg_len,) = struct.unpack_from("<I", blob, 6)
    ofs = 10 + cfg_len
    offsets = list(range(ofs, ofs + 4))
    ofs += 4
    for name, shape in parameter_shapes(config).items():
        header = 2 + len(name.encode("utf-8")) + 1 + 4 * len(shape)
        offsets += range(ofs, ofs + header)
        ofs += header + 4 * math.prod(shape)
    return offsets + list(range(ofs, len(blob)))


def test_every_checkpoint_structure_mutant_is_rejected(tmp_path):
    blob = save_checkpoint(ModelParams.init(TINY_MODEL, seed=1), tmp_path / "m.auck").read_bytes()
    path = tmp_path / "mutant.auck"
    loaded = []
    for pos in _structure_offsets(blob, TINY_MODEL):
        for mask in (0x01, 0x10, 0x80, 0xFF):
            mutant = bytearray(blob)
            mutant[pos] ^= mask
            path.write_bytes(bytes(mutant))
            try:
                load_checkpoint(path)
            except FormatError:
                continue
            loaded.append((pos, mask))
    assert loaded == []


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_corpora_fail_closed(tmp_path, tiny_corpus, seed):
    stored = store_corpus(tiny_corpus, tmp_path / "c.auc")
    assert _escapes(stored.read_bytes(), tmp_path / "mutant.auc", load_corpus, seed) == []
