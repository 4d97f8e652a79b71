"""`ktops check --format json` output pinned by SHA-256 digest.

The digests were captured before the congruence cross-check moved to
integer nodes, so they pin that its records (`checked["cross"]`), the
verdicts and the exit codes did not change.  ROADMAP item 1 (true
congruence verdicts) changes this output on purpose; it recaptures
these digests together with the table evidence for each changed cell.
"""
import hashlib
import io

import pytest

from ktops.cli import run

ARGS = ["--l", "2", "--sample", "3", "--include-negative-controls", "--format", "json"]

GOLDEN = {
    "K(3)": (1, "18e0c840228f9acdb68f1af268a9364a7d37f8a6cc58eeaa0c1bcec0972686d7"),
    "k(3)": (1, "19b0f4bbc97e5d972ad57033704676f7a420d6e8bfb6143016558d30d458af84"),
    "G(3)": (1, "65d179b64c5c362d77dd5eb0ff01e746e520cf79bcc1baa104080d4be120de4b"),
    "g(3)": (1, "49a3c014cf3a0e3ef051dcd63569abc596ff5b1c9dded749704fe3d5fb6e1b93"),
    "KO(2)": (0, "629a72fad422372841dc8b17f3df01597ba77869d46c16204e4e024cd926ec72"),
    "ko(2)": (0, "d6d4587cff04e4330feebe025342b833f796d42f2adcbefee447eacd59f24abf"),
    "K(2)": (1, "4fe278a3200cfc206d0003a76c7f7a6ec98edd9aafb9c5e594e72e4c938c3936"),
    "k(2)": (1, "10f46131fd950a37d67c3c022b746a3c922b035c602883d946e53d4aac8ff922"),
    "K(5)": (1, "50cf290056eaed65e3d286b562226e666df1fcb96ac48a40af1de3c81c9d4ad7"),
    "k(5)": (1, "fa052bf36e662b10b260c650cd5cb18f2ffe1e3cdc3f49f06d282bd7370cfa45"),
    "G(5)": (1, "d0ac7473c4d1018440064f1777d295a1a964977c34889024b48f036e214903f1"),
    "g(5)": (1, "814dd0353134b55440634ecddd12ab76abcdfe9c6ef9b4416fb058bce609f29a"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_check_json_matches_golden(name):
    buf = io.StringIO()
    code = run(["check", name] + ARGS, out=buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert (code, digest) == GOLDEN[name]
