"""`ktops product` and `ktops invert --format json` output pinned by SHA-256 digest.

The digests were captured while the dual algebra still multiplied and
inverted by contracting the structure-constant tables, so they pin that
the route through monomial pairings gives the same coefficients, the same
refusals (step, slot and pivot) and the same exit codes.
"""
import hashlib
import io

import pytest

from ktops.cli import run

GOLDEN = {
    "product k(3) --i 1 --j 2 --prec 6": (0, "daa01b8702e421df1f03934ea2a29ffe5021ed38324ff21de7e2eee712ec5c88"),
    "product k(3) --i 3 --j 4 --prec 12": (0, "49ac8a991b68ce7244eaf3049cd1e0157328da14c1b91cf59eda1c7cf248ce11"),
    "product k(3) --i 0 --j 5 --prec 8": (0, "da4e6e3480c9b78a10018bc9df92718e3092181b80390394509eb8a0875aa340"),
    "product KO(2) --i 1 --j 1 --prec 6": (0, "10a75caa72d739c09974da0b8b2842147f277137e9be96cce85f0481e682fabc"),
    "product KO(2) --i 2 --j 3 --prec 10": (0, "adba78ae0345efe1bbbe1d941fbda71ab01092c9053dbe989e9d351dcee31d6e"),
    "product G(5) --i 1 --j 2 --prec 6": (0, "77860911315a9b3cc9ca53358e4e7b1f068add265a482d128f63ba4933045647"),
    "product G(5) --i 3 --j 3 --prec 10": (0, "6f32bfb082f492c4059e641f9a5d4c55558da3938f1aa699c593284e613a73d3"),
    "invert k(3) --coeffs 1,3 --prec 4": (0, "90b5e0df83b9353fdf64e951094d7738987353f2059e7ce04d65bfead803752d"),
    "invert KO(2) --coeffs 1,0,2 --prec 8": (0, "60a202c7eab0f6ebba9f357d57b1d44fc1631cd97fe47783b6b0d95e99d83004"),
    "invert G(5) --coeffs 1,5,0,-5 --prec 10": (0, "9d44919c5445149e507a70638cb339a9ec1491c269428fef6b52bd894c471d5f"),
    "invert k(3) --coeffs 1,-1": (1, "3f8cd9395b9197d661f64fd5206327d724146c3441a8344d263b997f795ac684"),
    "invert k(3) --coeffs 1,2": (1, "a5a3231de21e8e4d8727e2e4c2a78f8f4de19849cb5c967912d59cdd69d72271"),
    "invert KO(2) --coeffs 2,1 --prec 3": (1, "03b8c09c9a0debb0213716a08b72e93ace69d2a84362f120d8edac0eb81673a4"),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_dual_json_matches_golden(command):
    buf = io.StringIO()
    code = run(command.split() + ["--format", "json"], out=buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert (code, digest) == GOLDEN[command]
