"""Raw instruction streams leave every kpu command with a documented exit
code, never a traceback.

Each image is kit.raw_image's short run of words at 0x4000: words encoded
from random rows of the instruction table (every row turns up across the
seed list) mixed with random 32-bit words, taken in both modes, with and
without an exit no-op on the illegal-instruction vector 0x700. `kpu run` and
`kpu oracle` must end in 0 (finished) or 1 (the program faulted or ran out
of budget), and `kpu compare` on a finished run's dump in 0, 1 or 3.
Whether the two machines agree is not asserted here.
"""

import random

import pytest

from kit import raw_image
from kpusim import isa
from kpusim.frontend import main

SEEDS = range(100)


@pytest.mark.parametrize("vector", [True, False], ids=["vector", "no-vector"])
@pytest.mark.parametrize("mode", ["user", "super"])
def test_raw_words_end_in_documented_exit_codes(mode, vector, tmp_path,
                                                capsys):
    image, dump = tmp_path / "raw.img", tmp_path / "raw.dump"
    rows, finished = set(), 0
    for seed in SEEDS:
        rng = random.Random(seed)
        image.write_text(raw_image(rng, mode, vector, rows))
        dump.unlink(missing_ok=True)
        run = main(["run", str(image), "--max-cycles", "3000",
                    "--dump", str(dump)])
        assert run in (0, 1), seed
        assert main(["oracle", str(image), "--max-steps", "3000"]) in (0, 1)
        if run == 0:
            finished += 1
            assert main(["compare", str(image), str(dump),
                         "--max-steps", "3000"]) in (0, 1, 3), seed
        capsys.readouterr()
    assert rows == set(isa.MNEMONICS)
    assert 0 < finished < len(SEEDS)
