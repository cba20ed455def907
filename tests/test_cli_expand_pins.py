"""Pinned `beta-arena expand` invocations: exit code, stdout and stderr.

Rows cover real bases (golden, 3, 2.5), the complex base 4.5·e^(0.05i) on
the centered and the uncentered square, and the quaternion 3+3i+3j+3k on
the lipschitz, hurwitz-box and zeta lattices, in text and JSON output, in
error and nudge mode.  Face points are points on the lower faces of the
domain or points whose orbit lands on a digit-cell face, so the error mode
raises there.

Text output and stderr are compared byte for byte.  JSON output is compared
as data: digits exactly, the reconstruction error to within one ulp,
because summing squares in a different order may move its last bit.
"""

import json
import math

import pytest

from beta_arena import cli

# argv after "expand", exit code, stdout, stderr
PINNED = [
    ('--real golden --x 0.854102 --n 8',
     0, 'digits: 1 0 1 0 0 0 0 0\nreconstruction error: 3.37503155423e-08\n',
     ''),
    ('--real golden --x 0.0 --n 8',
     3, '',
     'ambiguous input: 0.0 is within 1e-09 of an integer\n'),
    ('--real golden --x 0.3 --n 12 --format json',
     0, '{"digits": [0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0], "reconstruction_error": 7.331374358587883e-05}\n',
     ''),
    ('--real golden --x 0.3 --n 0',
     0, 'digits: \nreconstruction error: 0.3\n',
     ''),
    ('--real golden --x 0.3819660112501051 --n 10',
     3, '',
     'ambiguous input: 0.9999999999999999 is within 1e-09 of an integer\n'),
    ('--real golden --x 0.3819660112501051 --n 10 --on-ambiguous nudge',
     0, 'digits: 0 1 0 0 0 0 0 0 0 0\nreconstruction error: 0\n',
     ''),
    ('--real golden --x 0.3819660112501051 --n 10 --on-ambiguous nudge --format json',
     0, '{"digits": [0, 1, 0, 0, 0, 0, 0, 0, 0, 0], "reconstruction_error": 0.0}\n',
     ''),
    ('--real 3 --x 0.5 --n 8',
     0, 'digits: 1 1 1 1 1 1 1 1\nreconstruction error: 7.6207895138e-05\n',
     ''),
    ('--real 3 --x 0.3333333333333333 --n 6',
     3, '',
     'ambiguous input: 1.0 is within 1e-09 of an integer\n'),
    ('--real 3 --x 0.3333333333333333 --n 6 --on-ambiguous nudge --format json',
     0, '{"digits": [1, 0, 0, 0, 0, 0], "reconstruction_error": 0.0}\n',
     ''),
    ('--real 3 --x 0.9999999999 --n 6 --on-ambiguous nudge',
     0, 'digits: 2 2 2 2 2 2\nreconstruction error: 0.00137174201248\n',
     ''),
    ('--real 2.5 --x 0.5 --n 4 --format json',
     0, '{"digits": [1, 0, 1, 1], "reconstruction_error": 0.010399999999999965}\n',
     ''),
    ('--real 2.5 --x 0.4 --n 6',
     3, '',
     'ambiguous input: 1.0 is within 1e-09 of an integer\n'),
    ('--real 2.5 --x 0.4 --n 6 --on-ambiguous nudge',
     0, 'digits: 1 0 0 0 0 0\nreconstruction error: 0\n',
     ''),
    ('--complex 4.5 0.05 --centered --z 0.1 -0.2 --n 8',
     0, 'digits: -i, 2+i, 1-i, -2i, -1, 2-i, 0, -2i\nreconstruction error: 3.26206987942e-06\n',
     ''),
    ('--complex 4.5 0.05 --centered --z 0.1 -0.2 --n 8 --format json',
     0, '{"digits": [[0, -1], [2, 1], [1, -1], [0, -2], [-1, 0], [2, -1], [0, 0], [0, -2]], "reconstruction_error": 3.262069879424593e-06}\n',
     ''),
    ('--complex 4.5 0.05 --centered --z -0.5 -0.5 --n 6',
     0, 'digits: -2-2i, -1-2i, 2+2i, -i, 2-2i, -2+2i\nreconstruction error: 2.20830539073e-05\n',
     ''),
    ('--complex 4.5 0.05 --centered --z -0.3429946824307341 -0.3165863945969277 --n 8',
     3, '',
     'ambiguous input: -1.0000000000000002 is within 1e-09 of an integer\n'),
    ('--complex 4.5 0.05 --centered --z -0.3429946824307341 -0.3165863945969277 --n 8 --on-ambiguous nudge',
     0, 'digits: -1-i, -2-2i, -2i, 2i, 1-i, 2i, 1+i, 1\nreconstruction error: 2.70167817332e-06\n',
     ''),
    ('--complex 4.5 0.05 --centered --z -0.3429946824307341 -0.3165863945969277 --n 8 --on-ambiguous nudge --format json',
     0, '{"digits": [[-1, -1], [-2, -2], [0, -2], [0, 2], [1, -1], [0, 2], [1, 1], [1, 0]], "reconstruction_error": 2.7016781733157457e-06}\n',
     ''),
    ('--complex 4.5 0.05 --z 0.3 0.7 --n 8',
     0, 'digits: 1+3i, i, 3, 2+i, 3, 3+i, i, 3+2i\nreconstruction error: 3.13421538659e-06\n',
     ''),
    ('--complex 4.5 0.05 --z 0.3 0.7 --n 8 --format json',
     0, '{"digits": [[1, 3], [0, 1], [3, 0], [2, 1], [3, 0], [3, 1], [0, 1], [3, 2]], "reconstruction_error": 3.134215386591785e-06}\n',
     ''),
    ('--complex 4.5 0.05 --z 0.0 0.5 --n 6 --on-ambiguous nudge',
     0, 'digits: -1+2i, 3+i, 4+i, 2i, 1+3i, 3+2i\nreconstruction error: 4.45406836364e-05\n',
     ''),
    ('--complex 4.5 0.05 --z 0.4477762733410377 0.05546761168819589 --n 6',
     3, '',
     'ambiguous input: 2.0 is within 1e-09 of an integer\n'),
    ('--complex 4.5 0.05 --z 0.4477762733410377 0.05546761168819589 --n 6 --on-ambiguous nudge',
     0, 'digits: 2, -1+i, 4+2i, -1+3i, 3+2i, 3+2i\nreconstruction error: 9.92219448245e-05\n',
     ''),
    ('--quat 3 3 3 3 --lattice lipschitz --z 0.5550722933135851 0.7818055626789369 0.32333033071157014 0.5087153713592285 --n 6',
     0, 'digits: -4+4i+3j+k, -4+5i+3j+4k, 5i+2j+4k, -1, -7+i+2j+3k, -2+4i+4j+k\nreconstruction error: 2.65284046582e-05\n',
     ''),
    ('--quat 3 3 3 3 --lattice lipschitz --z 0.5550722933135851 0.7818055626789369 0.32333033071157014 0.5087153713592285 --n 8 --format json',
     0, '{"digits": [[-4, 4, 3, 1], [-4, 5, 3, 4], [0, 5, 2, 4], [-1, 0, 0, 0], [-7, 1, 2, 3], [-2, 4, 4, 1], [-5, 5, 3, 1], [0, 3, 2, 3]], "reconstruction_error": 6.415596284866554e-07}\n',
     ''),
    ('--quat 3 3 3 3 --lattice hurwitz-box --z 0.620041098422703 0.9211761649405869 0.971079842403048 0.023825151385002685 --n 6',
     0, 'digits: -4+i+7j+4k, -4+i+3j-k, -4+4j+4k, -4+2i+4j+6k, -1+2i+2j+9k, -5+i+5j+6k\nreconstruction error: 1.99698825669e-05\n',
     ''),
    ('--quat 3 3 3 3 --lattice hurwitz-box --z 0.620041098422703 0.9211761649405869 0.971079842403048 0.023825151385002685 --n 8 --format json',
     0, '{"digits": [[-4, 1, 7, 4], [-4, 1, 3, -1], [-4, 0, 4, 4], [-4, 2, 4, 6], [-1, 2, 2, 9], [-5, 1, 5, 6], [-4, 2, 3, -3], [-2, 3, 5, 3]], "reconstruction_error": 8.828617657923421e-07}\n',
     ''),
    ('--quat 3 3 3 3 --lattice zeta --z 0.27028428769963797 1.1760483613738646 0.03688798578772334 -0.9782842835279797 --n 6',
     0, 'digits: 7j-k, -6+4j, -11+i+16j-3k, -14+3i+10j-k, 1-2j, 1-i-4j+k\nreconstruction error: 7.48897705455e-05\n',
     ''),
    ('--quat 3 3 3 3 --lattice zeta --z 0.27028428769963797 1.1760483613738646 0.03688798578772334 -0.9782842835279797 --n 8 --format json',
     0, '{"digits": [[0, 0, 7, -1], [-6, 0, 4, 0], [-11, 1, 16, -3], [-14, 3, 10, -1], [1, 0, -2, 0], [1, -1, -4, 1], [-14, 2, 3, 0], [-9, 2, 13, -2]], "reconstruction_error": 7.192441174031107e-07}\n',
     ''),
    ('--quat 3 3 3 3 --lattice lipschitz --z 0.7148650973438129 0.9256473678219083 0.41020280313417234 0.3840486016332271 --n 9',
     3, '',
     'ambiguous input: 4.999999999999999 is within 1e-09 of an integer\n'),
    ('--quat 3 3 3 3 --lattice lipschitz --z 0.7148650973438129 0.9256473678219083 0.41020280313417234 0.3840486016332271 --n 9 --on-ambiguous nudge',
     0, 'digits: -4+4i+5j+k, -2+7i+3j+2k, -5+4i+j+k, 3j+2k, -5+6i, -5+2i+j+5k, i+3j+4k, -1+2i+2j-k, -6+5i+4j+4k\nreconstruction error: 1.54333368221e-07\n',
     ''),
    ('--quat 3 3 3 3 --lattice lipschitz --z 0.7148650973438129 0.9256473678219083 0.41020280313417234 0.3840486016332271 --n 9 --on-ambiguous nudge --format json',
     0, '{"digits": [[-4, 4, 5, 1], [-2, 7, 3, 2], [-5, 4, 1, 1], [0, 0, 3, 2], [-5, 6, 0, 0], [-5, 2, 1, 5], [0, 1, 3, 4], [-1, 2, 2, -1], [-6, 5, 4, 4]], "reconstruction_error": 1.5433336822053122e-07}\n',
     ''),
    ('--quat 3 3 3 3 --lattice hurwitz-box --z 0.8699405081833407 0.6349542409763265 0.22083103361078527 0.014155233596228944 --n 9',
     3, '',
     'ambiguous input: 2.220446049250313e-16 is within 1e-09 of an integer\n'),
    ('--quat 3 3 3 3 --lattice hurwitz-box --z 0.8699405081833407 0.6349542409763265 0.22083103361078527 0.014155233596228944 --n 9 --on-ambiguous nudge',
     0, 'digits: 3i+5j+2k, -5+3i+j-3k, -4+2i+4j+8k, -3+i+3j+8k, -7+3j+3k, -4+3i+5j+3k, -5+3i+4j+3k, -3+i+4j+3k, -5+2i+5j+4k\nreconstruction error: 1.03891612359e-07\n',
     ''),
    ('--quat 3 3 3 3 --lattice hurwitz-box --z 0.8699405081833407 0.6349542409763265 0.22083103361078527 0.014155233596228944 --n 9 --on-ambiguous nudge --format json',
     0, '{"digits": [[0, 3, 5, 2], [-5, 3, 1, -3], [-4, 2, 4, 8], [-3, 1, 3, 8], [-7, 0, 3, 3], [-4, 3, 5, 3], [-5, 3, 4, 3], [-3, 1, 4, 3], [-5, 2, 5, 4]], "reconstruction_error": 1.0389161235926521e-07}\n',
     ''),
    ('--quat 3 3 3 3 --lattice zeta --z 0.49756079316821095 0.37289516670731176 -0.17188241237285456 1.5472167859119552 --n 9',
     3, '',
     'ambiguous input: 1.0 is within 1e-09 of an integer\n'),
    ('--quat 3 3 3 3 --lattice zeta --z 0.49756079316821095 0.37289516670731176 -0.17188241237285456 1.5472167859119552 --n 9 --on-ambiguous nudge',
     0, 'digits: -4+i-3j+k, -2+12j-2k, -12+2i-11j+2k, -15+3i+7j-k, -5+i-11j+2k, -6+i+2j, -16+2i+11j-k, -2+4j, -7+i+14j-2k\nreconstruction error: 2.10509896612e-07\n',
     ''),
    ('--quat 3 3 3 3 --lattice zeta --z 0.49756079316821095 0.37289516670731176 -0.17188241237285456 1.5472167859119552 --n 9 --on-ambiguous nudge --format json',
     0, '{"digits": [[-4, 1, -3, 1], [-2, 0, 12, -2], [-12, 2, -11, 2], [-15, 3, 7, -1], [-5, 1, -11, 2], [-6, 1, 2, 0], [-16, 2, 11, -1], [-2, 0, 4, 0], [-7, 1, 14, -2]], "reconstruction_error": 2.1050989661183322e-07}\n',
     ''),
    ('--quat 3 3 3 3 --lattice lipschitz --z 0 0 0 0 --n 5',
     3, '',
     'ambiguous input: 0.0 is within 1e-09 of an integer\n'),
    ('--quat 3 3 3 3 --lattice lipschitz --z 0 0 0 0 --n 5 --on-ambiguous nudge',
     0, 'digits: 0, 0, 0, 0, 0\nreconstruction error: 0\n',
     ''),
    ('--quat 3 3 3 3 --lattice lipschitz --z 0.5 0.5 0.5 0.5 --n 0 --format json',
     0, '{"digits": [], "reconstruction_error": 1.0}\n',
     ''),
    ('--quat 0 1.618033988749895 0 0 --z 0.5 0 0.5 0 --n 6 --on-ambiguous nudge',
     0, 'digits: 0, -2-2j, i+k, -1-j, i+k, -1-j\nreconstruction error: 0.0394057103422\n',
     ''),
]


@pytest.mark.parametrize("argv, code, out, err", PINNED,
                         ids=[f"row{i}" for i in range(len(PINNED))])
def test_expand_output_is_pinned(capsys, argv, code, out, err):
    got_code = cli.main(["expand", *argv.split()])
    got = capsys.readouterr()
    assert (got_code, got.err) == (code, err)
    if "--format json" not in argv or not out:
        assert got.out == out
        return
    want_doc, got_doc = json.loads(out), json.loads(got.out)
    assert got.out.endswith("\n") and sorted(got_doc) == sorted(want_doc)
    assert got_doc["digits"] == want_doc["digits"]
    want_err = want_doc["reconstruction_error"]
    assert abs(got_doc["reconstruction_error"] - want_err) <= math.ulp(want_err)
