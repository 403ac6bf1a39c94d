"""Every answer up to n = 10, pinned by ``tools/coeff_digest.py``'s four lines.

The digest code is loaded from the tool itself, so there is one copy.  Any
change to a ``kron_coeff`` answer (value, method or bound), to a full
expansion, to either oracle's expansion or to a capped expansion's verdict
and witness (``formulas._direct_mfree``) changes one of these lines.
"""

import importlib.util
from pathlib import Path

from schurkron import clear_caches, kronecker

TOOL = Path(__file__).resolve().parent.parent / "tools" / "coeff_digest.py"

DIGESTS_AT_10 = [
    (19138, "3208ffdc2a155ebbe0c439123d11c4cc7df292945886c8b7cc9810e1d8bc3d02"),
    (664, "b01e93b82cb61cff73386eee502b26a3b54960dddb0a2d91e09a5176ffd214c5"),
    (1328, "c653308b03cf27503e86bc4c35b1e47e13265139c2f2a8331e8b5898d7eb6cb3"),
    (525, "3102d5a3c0c529a298dfd1f7d00aa85b65c6d93d97b6ed846d6d58b3ef5ae629"),
]


def _tool():
    spec = importlib.util.spec_from_file_location("coeff_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_answers_up_to_ten_are_pinned():
    assert _tool().digests(10) == DIGESTS_AT_10


def test_answers_are_the_same_with_the_walk_memo_warm():
    # a caller that changed a kept walk would change the second pass
    tool = _tool()
    clear_caches()
    assert tool.digests(10) == DIGESTS_AT_10
    kronecker._kron_coeff.cache_clear()  # answers, not walks, computed again
    assert kronecker._lr_walk.cache_info().currsize
    assert tool.digests(10) == DIGESTS_AT_10
