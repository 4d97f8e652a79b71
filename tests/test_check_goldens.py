"""`ktops check --format json` output pinned by SHA-256 digest.

The digests were recaptured when the congruence verdict became one
definition, nu(Gamma[m,n->t] - delta_{t,m+n}) >= l for every target t:
theta-form cells are decided by the diagonal, the node short-cut or the
complete expansion and carry no cross-check record (`checked` is null),
and the table route of k(2) and K(2) reads the diagonal as a
congruence.  Every verdict, witness and least valuation that changed
is listed with its table evidence in CHANGES.md; the exit codes did
not change.  The entries at the primes 7 and 10007 were captured before
the unit condition and the node short-cut took their closed forms, and
pin that those forms changed no output.
"""
import hashlib
import io

import pytest

from ktops.cli import run

ARGS = ["--l", "2", "--sample", "3", "--include-negative-controls", "--format", "json"]

GOLDEN = {
    "K(3)": (1, "4379718016e70b7b26d8a041b50ea7e4d3f09423d02a2bbbaa0ef5d83152950d"),
    "k(3)": (1, "a3f8e4e5639ba3c2c4f26fe9823505dfec1ab360309ffa56761d8dcb1ebe3b15"),
    "G(3)": (1, "d7f5551680ab2012aec28b9d72d1d88705c55489c3d5490eca46a014c1026fa6"),
    "g(3)": (1, "bb6f462bed5d78a6e60000af90809768399b9081417fae67bc75a57fbc3659f8"),
    "KO(2)": (0, "dc674376e2be9809c0d615244800834b4b7bb1d20325dacfaa266561c88535d4"),
    "ko(2)": (0, "cb1f838433bf8eb8e16b8133770ffb32cc5558888b21ac0b2fb84ac7191c867e"),
    "K(2)": (1, "cb0e0b40a91fb9ad09fa4c0527432599bd1837edc72e9899b6189d608a6f797a"),
    "k(2)": (1, "25cd1b306ead3b5c89ad2130d47884fa924bc9989f055c44fbef020b620551dc"),
    "K(5)": (1, "a463840052dcfd727140fca5ac012f74ba0466ec556c708ee6c88f8ccf4efee4"),
    "k(5)": (1, "ffc38b5b4b99bafa9c8d9cc82063cac25fa600febe4e6d203ea8107bfa2575bc"),
    "G(5)": (1, "29986cf075e26686613f4280e885cc49cff9aad0e402850feb95688de4fc00c0"),
    "g(5)": (1, "0b4a108e4d05dcb26fa8381bce31c48744debd8b96a8daa1eb6f7400094470d0"),
    "k(7)": (1, "31131f365181cb9a890b24e9fa55426d1c17f24a97cc8a1b9764b66c4bb8cdc5"),
    "G(7)": (1, "db9de681c71dc11513ca9c92577b6454cac6f5072ce8306c821870d12b4073e5"),
    "k(10007)": (1, "93e182c1633287661ae7239140c4c34553391fc1effec74968088b155a02e616"),
    "K(10007)": (1, "37203cf0673bc40a9365d7f5b70700482425bb71885826c30cf78e33dc624587"),
    "G(10007)": (1, "680e00cabc4695de874e0443c3f2de8db73274a37ad2dae627242daa093821c6"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_check_json_matches_golden(name):
    buf = io.StringIO()
    code = run(["check", name] + ARGS, out=buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert (code, digest) == GOLDEN[name]
