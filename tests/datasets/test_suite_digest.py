"""Byte-identity guard for the Table II stand-ins.

SHA-256 digests of every stand-in's CSR arrays (``indptr``, ``indices``,
``data``) and of its right-hand side ``load_problem(key).b``, plus the
extra near-singular stand-in.  A change to the generators, the COO
canonicalization or the CSR conversion that claims to move no number
must leave all of them equal.

The digests depend on numpy's random streams and its elementwise
``exp``/``log``, so they are pinned to one numpy minor version and the
test skips under any other.  To re-pin after a deliberate change, print
``hashlib.sha256(a.tobytes()).hexdigest()`` for each array and say in
the change which stand-ins moved and why.
"""

import hashlib

import numpy as np
import pytest

from repro.datasets import dataset_keys, load_extra, load_matrix, load_problem

PINNED_NUMPY = "2.4"

pytestmark = pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != PINNED_NUMPY,
    reason=f"digests pinned under numpy {PINNED_NUMPY}.x",
)

# key -> (indptr, indices, data, b)
DIGESTS = {
    "2C": (
        "485a5e656a9993d02aa04a4c69de32cc448e5601420a0e9b75cf79954c814dbe",
        "baceaf7fc52c6d061776faf3994094500b21b5623144ed9fb1d98131f3d5b3a0",
        "f935e8ce51a1913ea70128e0a153e6e09da0859221d1d171752ef103c1435114",
        "f5746efe5970d35d118eeb71bbf7fc5aa345952bc88213907f5aa377188c4a3f",
    ),
    "Of": (
        "f593cb2a2da6f1aa9022f39d31e073c73304bc3ecdaf942e76cd9329516f337f",
        "0caac03bab86f0c0b53c979ebb7c0113e0231c3bbba877b74b805cf28b80646a",
        "bc2ba16bbc9b86837f89042e16fde6cbbdaea96ca8e60bf4f531a6fa57de7d37",
        "a4f253e186508db19e4134905e346dbb6caf701b26c2894d6a90e33c2c272c59",
    ),
    "Wi": (
        "a065678dc79be51b81bbaa5e2a60fd9ba19b885f31ef57926eb99dfae0720406",
        "5abb761cb57ae32820936a7e31f85641b4b206062e872cef9e899096024f41e7",
        "909687c3cc3bda05c5836e4bda95e546a79c16e8bc8013e4b6824f578b964fd5",
        "b7052b5fd38c82ca3abb09739ee2d886e0c1dbdf726d0cce56c41e6e92f59d6b",
    ),
    "If": (
        "b8a1923e615842059951efb6fa66e340ef279ebd7c4a3b028425cde5c41d3eb0",
        "836a1f0cf3bdeeb63fb7dc080edf0e0b29197198a022334eacda8aa91bdb5a10",
        "54afb200868ca6534df9eff1e4d51f53b3ce583c0ca751c9f728cb29d6a80956",
        "3fab7ebe0bc0862fa3385b503d348120b71def0c1b4cfd21dfd3fe0c9f126e48",
    ),
    "Wa": (
        "f365bc2149635535bcd66096e0f3b8953c5778ad079165c15c065cb723d3ac9f",
        "6942472f4e241ab109a40c7861f45ac8aa9ccb7e590cd4ce8d0a4677e782ba34",
        "72156ef75d1b743d54148f4275bae4fa6575b51494070da12fcd1aaf105382e9",
        "d475763a3c5e421530eec9a295e2b9e94dc437c93b6dfc588b379913f7771853",
    ),
    "Fe": (
        "976b0d088ceb8cae2285e111c21508a4a7c4a7f0ebaa7f197615b844a9b039ab",
        "df5afcb9b3d2b34e41b2c4e794006faa670e1709cfab6e3f9ecc5a0db792f861",
        "d08c315092def32194ddce609e04454281ad131523a288f17b690ecd41a30e60",
        "8b498ba0c021b8d822c88ebc7f4bb27fbf6652c34cf7dd973379204a73d2b9cd",
    ),
    "Eb": (
        "c4d1a8a66b8a03e7c8565d25eb49ac8a58029f203c6fb77a727a75b7d75c961d",
        "4e4521bd1afd1de83fd034cab65e5094b48df4d173c8808043775321afb14cfb",
        "68e9625dbc3b8638eb6be1817248ef7c35dee6fbea648fd0659225e3aadeaaab",
        "2759a355bbf448a372a9607167b5c412db7aac36076bf1de4bc4d5f1207697ed",
    ),
    "Qa": (
        "b0ef5a7a260c5cfae6fe5495ed3f4b6cc4425f16c86b5ffda9e09856e4f4ada1",
        "f60f11a2237a66856ebeeca179d28f0c545b98e87141221d10f2e07fb595edf7",
        "58e5d5809c73525a030d058ce468b2e20424ad760ee300325c4db11d421fc6f8",
        "a561d2ec32b05d632d5554c6ede532cac03f74d538e7d344b146fbe908c8179a",
    ),
    "Th": (
        "4389c11ee4352af28deac501de684c52e04842390c825ff38b2eaae1e43de3ea",
        "1d1d48f793e0b4ab401cd82098a822e9230df192d913940eb99e627deb7163ec",
        "47b73bfa8a26e389b52c7dbb1ea3ee39f6ba6f46d795977dbc2a1bbf9cdb8aba",
        "5b6543f85b98b53d7a01bf660acf4a6995c731e27cbe9d34cc89ce8271080fa4",
    ),
    "Bc": (
        "ae5ea9e5e092bd3f0cc8d1a3965201822bb35bd160161fda7ddc3d9f6db48ea0",
        "511ee770b30530128b2d583e5d2be4e8ae75ed1bf771b4d0317812dad1b7cbea",
        "c678693d6d9b0aa0fe51dd97028d7c52c47af4b74da3a708df0f3051bf06f776",
        "2666ec9cd6cd4313e96e9add3889f7534ffa108af180bfcf8ab9db8ced6b592a",
    ),
    "Sd": (
        "57c2c77576b184a6e51b316041383b79f75077ce0e4bbffa0cda1cd692a305aa",
        "b759cde4617cc879de5ba70722982c865fcd8035b6546e3898893e761a0571d9",
        "224029c8b94c288c258f87739648c575a7840d1da5504295c532d1113d8d8701",
        "979e5b011bd91b81b2de0a96eeaf8e672768f2041b702da88311d6493b6872fc",
    ),
    "Li": (
        "1897a751264a128f2297ebc4bda1816129adeaeb0b49d6c9786c3c47adf7d1d3",
        "6e3529d6e53b2a3196bd67e6e3ac53d3cacc48fbfff9446264d5d0a11e851dff",
        "c2739b1f5bc355ddb4ddfe1cabc784933a988f2e4a44a6ad7896fb0926cf9dbb",
        "9f45729bcf02939d02330c84eab05db1ad1721ccb4421bd43f8415585b44ad56",
    ),
    "Po": (
        "fbfed9a209c175f462386b2c6d9dfd0683d69eda819a8ae21a137746cdcd3131",
        "c2bac59517807656ec4150873d328ba306fa8a7e42f6991f5c2efc075ac972b2",
        "96570c6386621fe09fdab66da2d7e8e99c338059e4ad43999beb721994b16836",
        "7c55f26c3569c2b104f04280a728e1f23b9562483f064089b5afa8228408f841",
    ),
    "Cr": (
        "0e6fec8447459ce384e9ab3fdce50128d0a1f2b26465ffeca38169eef012a987",
        "cb73f8a2506d981b1005acc0f38fb121645b70261c7c0eb9218e80f55f23965e",
        "250dd92acfeca181d8e362de5351cab9ff5f54177b71ea39a32169fac3157783",
        "86ca80eb6aaa57180df1f2349c33abe2c7154e6e7af17bd9b079dca3a6d1ea49",
    ),
    "At": (
        "5f0b9f0ec930f670a74acac69e4def7f4c33ada997be315c269d8741d229fe33",
        "f270da848182638011a81267a793e057efe22794ac912f8f0ffe73e49372cbec",
        "4db330a4c469504208d48fe5a9d9d899636524f8d1267657ab6465466ef3c067",
        "b39961b767586f5c2e62d6e05ae410c4d5b61a20d789840dce9095666a97e9f7",
    ),
    "Mo": (
        "e888a48efec31f76c4400ed1915b6a02ed298d01eb54a5cd5fe8dc8f1570d34d",
        "1b636ec8ab8141aefbc24f02c67ccfaa113415817a50c8d0cac15b1d50094ee3",
        "dfe5bb65178e0fa65d4da28b4fa766d931f5cc9fc3e97b9f1d3bcc274168a0db",
        "8223340955d950e452e4eca5bda023042e2ce5eed6e2fdd7d7db63454660c4d7",
    ),
    "Ct": (
        "9198b4a2c01f637769fabe1702bd5ba7377ad6975b3eaebc8b2d1f054fe376ac",
        "acdb09612a375de4835520dfec1ef9c4f8f142a712b11ad28a5fdf70ae67acf4",
        "f2e0a2073ab3953de01387a179ca2977a8636ebc58e7b67ad973d2bf990a7a19",
        "a20e07e6e2c974a0b3a2e4bcb60869a33d9ba743a2dfb8413c262692af7b188d",
    ),
    "Ns": (
        "417f3d086b820229c83d7ce25b7de8143e66ea565c754b663d182b952b2ef800",
        "3199a61202a16ee00941ef1c7d1621c92a367a5ab7200f91f3cb078e339ca71c",
        "36df7823c68d005ff7d140903e42d5822ac13e7184d2b9068f30fdf6ef92258c",
        "5ca63cf585775c802ee3996b1ce58648cd8e217cc41263e298c21ff1e833e9a9",
    ),
    "Fi": (
        "8fbe2e505ade8ea0253e6570cc8566d74c69631f85e2e749555e3a326cd381b7",
        "113d99db263d9be5b47d6189cf94a259140a440b8840744406252d614b590709",
        "721484a282178fb831f16315054a1c1ab59ea43f108ad9f913b4577421ed2d71",
        "df72480fdbf5fe16ef842e80f5263fa7f567fbfd63660c752c104cd470ffceb4",
    ),
    "G2": (
        "024037ffab4684fba25728056146a78a6e1e4dfd5ac24ea66a9e90634f209826",
        "31e8d59d5e3f0fa002c53b97c71985b97b365c795138152a4abcdb04f5576b49",
        "48bf6b552cb0ff4b512b9dc45689f115edab1e3ada937754b9081127c3ed180f",
        "3ce2ebaa57bb274ea7a098c5456832577de75626f65fc267a98b53f7f4487333",
    ),
    "Ga": (
        "59afc0cc911a48f91142ee407d94b8bc75ae3a9c7c9c5453d9fd6c0c4658b479",
        "eee5e950e72d8afbbc4cfede3d7b950252f31849c9a2e57eb1146c7fce84c6e8",
        "45f68651bccba2b041d82ae251177dbf68c097bb640c7884ed20dbbf55ebc28a",
        "67cb4954507e336b0072f88398a581b497e269a5395eb58af159df5f953cacc6",
    ),
    "Si": (
        "0f9e8059b7a5dbee1124e37357c4ab271a3edd08c0b776f8b42216e15536a940",
        "5a5b4517b6e207277c24202c967f064737f21d25094eca5f5869f353b4f5b527",
        "1331d882b310322a33b7e3327f5f3ed7e6ea719fd2f3af0512a4695ea4bcc5de",
        "3e78da69f3d179404f68746ccfe30a6d2130156e08a15d3fe48ed2bd47c9fcb9",
    ),
    "To": (
        "6a6aadb0c79f653a8a0a133f51aa023a7b15f20899a001e7eaf96e0b36917574",
        "06491a6da1806f368605f4619fdbb08106208f89ba9ef26d7c8f9acc7a21f576",
        "dd6c076832334a4490fab79f771c5ca6f194a437e3d032499e3e5a519371ca4c",
        "46eb4712dd000bb8b995f38695f18f21459a80e52fc250299667e1c45a99c269",
    ),
    "Ci": (
        "94cdfab56056b4bf2607dd45dd61b469e39d5dc661524489deca23f09d292859",
        "0c05b60125d0ee063eaed0747bf43d07d477d4dc6be391385a1f9e14d1b19c91",
        "ee15a0e9af1f9c65e1f68dd031391ae4aa0db3ecd390e4f1ae03f557521aa07f",
        "6c5919f0e39672d6c91856c4a64f9ca821e9ed402ffaf2d9d78873c18369aed2",
    ),
    "Tf": (
        "8067294f85accda66af27119dc50c8fd598b5e38e330f83978a4080638d5d7fc",
        "84214ad5e961e4157f6cd3ea43c48ed20188f78bc39d948c81ee0d567ff9e550",
        "1da2e24ad4557efc8bf466540e5380648f79be4eac07eb47c1030a21b07bca66",
        "efaff3344038bdc418a7f841efa97a5b9694d3e5f5eab4f9567f346091038c92",
    ),
}

EXTRA_DIGESTS = (
    "964dac25d8f9809e640e6289c0548358a3c820cbe0960704932f6bb1a0adb1cd",
    "609d0d222c3feb0155361bfb7326d6ede316cf2780fc94fae4c1fadd1b3dd587",
    "a59160819a82767ce790fe4a6b81688a473cea3efd2b354dddd41e7a0c9dace4",
    "7e9b772da79fa0b861cf7f63676597eb80ffbe9ed815799c6f24d2e30fb1e90e",
)


def _digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


def _digests(matrix, b):
    assert matrix.indptr.dtype == np.int64
    assert matrix.indices.dtype == np.int64
    assert matrix.data.dtype == np.float64
    assert b.dtype == np.float32
    return (
        _digest(matrix.indptr),
        _digest(matrix.indices),
        _digest(matrix.data),
        _digest(b),
    )


def test_every_table_ii_key_is_pinned():
    assert tuple(DIGESTS) == dataset_keys()


@pytest.mark.parametrize("key", list(DIGESTS))
def test_stand_in_is_byte_identical(key):
    assert _digests(load_matrix(key), load_problem(key).b) == DIGESTS[key]


def test_extra_stand_in_is_byte_identical():
    problem = load_extra()
    assert _digests(problem.matrix, problem.b) == EXTRA_DIGESTS
