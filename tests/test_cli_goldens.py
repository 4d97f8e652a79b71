"""Every `ktops` subcommand's stdout, in all three formats, pinned by SHA-256 digest.

The digests were captured while each subcommand still built its JSON
payload, its tsv rows and its pretty lines side by side, so they pin that
rendering tsv and pretty from the one JSON record changes no byte of any
format, and that the exit codes stay the same.  The `check` digests were
recaptured, with the same exit codes, when the congruence verdict became
one definition (see tests/test_check_goldens.py); the others are the
original captures.  The G(5) and K(3) gamma digests, whose tables have
fractional entries at an odd prime, were captured while the tables were
still printed through Fractions, so they pin that printing them from
their integer form changes no byte.  The `basis k(2)|K(2) --n 40` and
`gamma k(2) --n 16` digests were captured while the k(2) and K(2) bases
were still read off the base-9 theta basis of ko(2), so they pin that
building them on their own node sequence 1, -1, 3, -3, 9, ... changes
no byte.
"""
import hashlib
import io

import pytest

from ktops.cli import run

GOLDEN = {
    ("basis k(3) --n 6", "json"): (0, "d69cc20f7174945aeb11112ddcb599338c296c9660cfc5ae3e9c821db396cdf1"),
    ("basis k(3) --n 6", "tsv"): (0, "fe79dfe06e2434434ff3f405ada9f716da70c77262bf726ce439d0d4f7390809"),
    ("basis k(3) --n 6", "pretty"): (0, "3fc76a69fb92cb612a8fbeeae5ab7189ef284802578eb155a8e27823aa96e7c7"),
    ("basis KO(2) --n 6", "json"): (0, "90d7e48368bbb986e0f24906e03790ecff67ea340bf3683960a26f5ea692ec78"),
    ("basis KO(2) --n 6", "tsv"): (0, "55bd62b9ffd5c587520cd86d39e41ffdbd494400f5fc36756c26590f41b44b90"),
    ("basis KO(2) --n 6", "pretty"): (0, "437e146917fd79001a49bd3e53c772c53d49aa3b7da006813b7f6aa4d5121c0e"),
    ("basis K(2) --n 5", "json"): (0, "e9830cf26dc027a2dc01bc8a1b6ec40af1c9212df95a6433435a317677ec1fdc"),
    ("basis K(2) --n 5", "tsv"): (0, "9654ca73b1bab81fefc9b0ce9eaba72f572bbf6b6f44435baed70de10a43cb7e"),
    ("basis K(2) --n 5", "pretty"): (0, "a63dafaeab299a4d14c79c5ca870fd8b6ccf921600fe18aad549e1381a14a814"),
    ("basis k(2) --n 40", "json"): (0, "42b7594e48a68fe0c22a90859a1da8551f8d553272e156607d5ef414a7e3db9f"),
    ("basis k(2) --n 40", "tsv"): (0, "5f3568950e6a13d0b770f1a395b99e89a8454c00d1d4263c627f190e019a550a"),
    ("basis k(2) --n 40", "pretty"): (0, "3ae9f9427be2ad9075dd0b15fa1d9316c5297601f97650c3319f8763937571a9"),
    ("basis K(2) --n 40", "json"): (0, "64c1c156d26b14937b48bef769ec925af7d7cf43e13409c9c3ab58404cc01502"),
    ("basis K(2) --n 40", "tsv"): (0, "21e521a57588f81864d56723d6f850e09230cebe2d719da0ca5c73f29cfe54dc"),
    ("basis K(2) --n 40", "pretty"): (0, "e66af67d8344495c2c9d0147e605f684fb328a9ae27382643ce441f5d291f582"),
    ("gamma k(3) --n 4", "json"): (0, "c20894d9cc38c8ecb1373bbeb7b3682ffbe12d5c3c19223eddf2bda41550805d"),
    ("gamma k(3) --n 4", "tsv"): (0, "867a25ac432e3f4fa9e79636af00b9ae5599c87e7970d1115ce15ced1f50f034"),
    ("gamma k(3) --n 4", "pretty"): (0, "2d51c5bd8c3347b2d6cab84db47c5b0098fcc7409d2e50bdc5a84b808e59e555"),
    ("gamma KO(2) --n 4", "json"): (0, "3ff812ce4c875876ff4ba2d19100de8fc2253cd856c6a2045135f16001b055e3"),
    ("gamma KO(2) --n 4", "tsv"): (0, "fae870dea2b833c499372d7b13672bf6388d1b03f7990b8a74495b05cb432347"),
    ("gamma KO(2) --n 4", "pretty"): (0, "cbad1180bd374328e5e347f7713231443e891bb4c304f1d10e50a53535d27761"),
    ("gamma K(2) --n 5", "json"): (0, "502c1dea2e35f93ad4517b6d3d83d016d650ade1e117d51e060f11438a6e2218"),
    ("gamma K(2) --n 5", "tsv"): (0, "aac217289b0f58f172f656984a8829fc223e73ca932556973f508f048f008225"),
    ("gamma K(2) --n 5", "pretty"): (0, "30135dd32dfffde86080622811d633b02d4717feaed5600fa287baad91c43fd5"),
    ("gamma k(2) --n 16", "json"): (0, "e88bdf0b0eb5d9e6128841bace09b8f05317e8f337ec0f2aee50d9eca0d5dcdd"),
    ("gamma k(2) --n 16", "tsv"): (0, "31d612028a5463ad059a62c466ad2805b87026dafb71cbcd27435d66111c4dfd"),
    ("gamma k(2) --n 16", "pretty"): (0, "a1a613491ca3b80607da03b49cbb1adae5fb50a577cad45f172433aabda745c4"),
    ("gamma G(5) --n 6", "json"): (0, "403a56fa36fae823670c5ac087a0d7ff9cd01334cf7ffa0a981c7095e5664e33"),
    ("gamma G(5) --n 6", "tsv"): (0, "557499c73b788638b8c0dbf7a6a34a51decf4a6913f4e442f0c391a7188c9da8"),
    ("gamma G(5) --n 6", "pretty"): (0, "061f9f334b216ff8e1171eca70bbeceec9c05c29160c4067ea5d07068b42d08c"),
    ("gamma K(3) --n 6", "json"): (0, "58f63e8d97df174310862feea17c16cb4e6aa4630b4056c902d1f01c9128e266"),
    ("gamma K(3) --n 6", "tsv"): (0, "7bbaad27cc5191818a6f12495d62a6e9fb43cc5635aea6cd858c586d97b759de"),
    ("gamma K(3) --n 6", "pretty"): (0, "f1189da2015670ec0ae626f30fdfc78e334f4968067f4fcef69ca2540bfb1398"),
    ("val2 --max 16", "json"): (0, "31cfdf901372706fffa1a8064d6d73c8bf6cc8ae50cb77586b36ad0be69820c9"),
    ("val2 --max 16", "tsv"): (0, "53c2564be0e9a56855a54fe2125f4df93c7989e158a40c902b0bd960c784104e"),
    ("val2 --max 16", "pretty"): (0, "08607a1c560423e1ecf02ee9575288eaaafbec216d24840c08de8b4c95016c8c"),
    ("gamma-transfer --max 3", "json"): (0, "624bd0b700096b5e62ec99e9232f4a4a6d46a4c4f8ea062374595e4374dd0090"),
    ("gamma-transfer --max 3", "tsv"): (0, "523ee817e6e4757899b68f30e76122ea1a11f00e4fac55e56c534ff017a48b40"),
    ("gamma-transfer --max 3", "pretty"): (0, "49bc23fdacff80be7cd5783cb4eab656c8e13871453310f6a30dd6cca9ea67d8"),
    ("check k(3) --l 1 --sample 3 --include-negative-controls", "json"): (1, "f3ea43f5208f309a81a514ecf0c073f813c7e752d0461d69be4854e70c42787b"),
    ("check k(3) --l 1 --sample 3 --include-negative-controls", "tsv"): (1, "3317d50d16a6ca6459099e0b93cfcbb020f253ec060f634df3a9b07e78ba1685"),
    ("check k(3) --l 1 --sample 3 --include-negative-controls", "pretty"): (1, "16106aff75d866a031d882ddb79e06892f226b825cc644915524fc4a4519c2ad"),
    ("check K(2) --l 1 --sample 3 --include-negative-controls", "json"): (1, "62fd280aced53771a0bcb7ed7030f5d720121b1bc76fc31c0e637361607609e9"),
    ("check K(2) --l 1 --sample 3 --include-negative-controls", "tsv"): (1, "590824c876859bc38f6a9708b3502b6b5e49a5c3092580afd6d0a372566bb1a5"),
    ("check K(2) --l 1 --sample 3 --include-negative-controls", "pretty"): (1, "60df9542422a68a072a1dcfaf2f89ad05e4b6c3657c8e28bce2ab3876994eba4"),
    ("product k(3) --i 2 --j 3 --prec 7", "json"): (0, "876609b0333262cc25039580e37b1d55950e0b7839bec34538d7e7f8ed2ae6ed"),
    ("product k(3) --i 2 --j 3 --prec 7", "tsv"): (0, "1fb8d7a0234650d1fb4752d56c09e1b5f3616b6064fe0913c2174896936e92f2"),
    ("product k(3) --i 2 --j 3 --prec 7", "pretty"): (0, "3be46f6089d5a8dd65a713d20739c7e1bd148d480cadf02bca4a8affd80a178e"),
    ("product K(2) --i 1 --j 2 --prec 6", "json"): (0, "7b871fb62215dcc65da25d1409d234673c9eebb10a252478bc68958a21cc66a8"),
    ("product K(2) --i 1 --j 2 --prec 6", "tsv"): (0, "cb01fa72a9fa5b8d0a723326ec819ee29629ccb652cf05b87a8d34efe3acbbe6"),
    ("product K(2) --i 1 --j 2 --prec 6", "pretty"): (0, "e5462531bafc01084957b841bdd7eb2dd72ec5c4a4571a3b0ed2d20173e6cc47"),
    ("invert KO(2) --coeffs 1,2,0,-2 --prec 6", "json"): (0, "7b54061913eb77d4be3bcfc80a20b608942812bdf1d949a05e3470a733dfcd3b"),
    ("invert KO(2) --coeffs 1,2,0,-2 --prec 6", "tsv"): (0, "2b417f99226b7e6d79d4a64c4cd00762f91cc5f0f96950aa0525927b1c1a7a26"),
    ("invert KO(2) --coeffs 1,2,0,-2 --prec 6", "pretty"): (0, "8514aa761dd84263ba74c1c9cf8c4e6c503e8b54a8236f403908556199abf6ef"),
    ("invert k(3) --coeffs 1,-1", "json"): (1, "3f8cd9395b9197d661f64fd5206327d724146c3441a8344d263b997f795ac684"),
    ("invert k(3) --coeffs 1,-1", "tsv"): (1, "19d57d53ec23652d05b5df90e1de865040d46ed31045d49a335d6c9f0c7797d8"),
    ("invert k(3) --coeffs 1,-1", "pretty"): (1, "dd0f51fae2ba646c4913a5c37e5f7f96850bdc51b17e17344923489acf58a631"),
}


@pytest.mark.parametrize("command,fmt", list(GOLDEN))
def test_cli_output_matches_golden(command, fmt):
    buf = io.StringIO()
    code = run(command.split() + ["--format", fmt], out=buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert (code, digest) == GOLDEN[command, fmt]
