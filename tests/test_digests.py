"""Golden sha256 digests of every stage's bytes on the five fixtures.

The oracles in tests/reference.py run in the same numpy on the same host,
and the benchmark's psnr.csv hashes see only 6 decimals; these pins catch a
change to any bit of an intermediate. Each array is digested with its
dtype and shape. Labels are digested by value, as uint8, so the pins do not
depend on the dtype a scan returns them in. A change that moves a pin must
say so.

Only salt-and-pepper noise is pinned. Gaussian and speckle draw normals
through `np.log1p`, and numpy's AVX-512 `log1p` gives other last bits than
its baseline loop, so their digests, and those of every filter downstream
of them, would hold only on some hosts.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from varipix import (
    NoiseSpec,
    PipelineConfig,
    adaptive_filter,
    apply_noise,
    box_filter,
    evaluate_image,
    scan_parallel_fused,
    scan_square,
)
from varipix.filters import ADAPTIVE_MODES, STATISTICS
from varipix.pipeline import rows_to_csv
from varipix.synth import fixture_images

KERNELS = (3, 5)


def digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str} {a.shape}\n".encode("ascii"))
    h.update(a.tobytes())
    return h.hexdigest()


def stage_digests(img: np.ndarray, masks) -> dict[str, str]:
    """Digests of both scans, their salt-and-pepper stack and its filters, keyed by stage."""
    square = scan_square(img)
    fused = scan_parallel_fused(img, masks)
    noisy = apply_noise(np.stack((square, fused.image)), NoiseSpec("salt_pepper"))
    out = {
        "square": digest(square),
        "variable": digest(fused.image),
        "labels": digest(fused.labels.astype(np.uint8)),
        "chosen_masks": digest(fused.chosen_masks.astype(np.int64)),
        "salt_pepper": digest(noisy),
    }
    for stat in STATISTICS:
        for k in KERNELS:
            for pipe, plane in (("square", noisy[0]), ("variable", noisy[1])):
                out[f"box_{pipe}_{stat}_k{k}"] = digest(box_filter(plane, k, stat))
            for mode in ADAPTIVE_MODES:
                out[f"adaptive_{mode}_{stat}_k{k}"] = digest(adaptive_filter(noisy[1], fused.labels, k, stat, mode))
    return out


PINS = {
    "checkerboard": {
        "square": "2029564e94485eab68ebec7fedbc21a214885e35fa9250efa54b811fc6a772af",
        "variable": "aa1e9847d5b20a78079a56559685c254cadc41472e67df762643bee992547493",
        "labels": "b78e3b95b40eb20f275f338e216fac0e7c638b8320fb3591dda56c77b247a964",
        "chosen_masks": "ca0e3eea9e097250e16562aba221f6b6cf1568d36afa3cc3eb1b9ab3a470f61d",
        "salt_pepper": "af8b05a274dd6c555d79a17714024fb97223d9faffca1c74d78914f9ea262e53",
        "box_square_mean_k3": "8e1f0fa06551e40b25bbeae4dbaea0b1ce59f47d20c7935c38281c22efd9a758",
        "box_variable_mean_k3": "8e85a115496d1feecc24da2e5adbaffdb309346bf3f869689e9e4dc144852fc3",
        "adaptive_literal_mean_k3": "42191b1bd19e52fbadb8b65e403c4d654eca944c9082af29c40f247bce85b847",
        "adaptive_block_mean_k3": "7c4fc6f0051027021d75c493e7bf92101a5daf1a280e9a4a3da16a3aef446fd9",
        "box_square_mean_k5": "5cb5302fbbf3e7e22692538df5a547d560e17fc331b5ec535eec319783f700af",
        "box_variable_mean_k5": "4e4f1122dd374f491de8fbe848b25678c7706c30f21fbae031c6ecec61a8b1bd",
        "adaptive_literal_mean_k5": "513e247b58fc91e8f2741917a44ee1a4e20b69b3dd388a32cf75564e75d2b8e9",
        "adaptive_block_mean_k5": "18af69188e967d83766146d7118040039c962848facccd170e6d173829cc33a8",
        "box_square_median_k3": "72a24d619312b36b6a5f146c0008216da506493e1b3a6677834ffc22eab12108",
        "box_variable_median_k3": "97a064fa9596ec90eddacea3c2c3ecced0523724aefa33a728d3764980108b06",
        "adaptive_literal_median_k3": "55b452998730cc9b26f2bbb4937ca7cb1d54fe625f12b89a2069b1729171cf35",
        "adaptive_block_median_k3": "b065f453d45cc79ada0420d4cb22e4ef9f328453e27dffbec2e530a986bb0791",
        "box_square_median_k5": "58b01652f829dfba6aaf7f09568f2823dd73669ab7359216746a8fab58bb3064",
        "box_variable_median_k5": "891fe48d69db32fdce1b5c6ac7348f176b8d6d235ddbd95ed2365c15eea2f903",
        "adaptive_literal_median_k5": "ff09b245e170c7e952a1cd59433402c3cbc109105cc31ad77c53891f4d2ab305",
        "adaptive_block_median_k5": "4978215fc4c74fe0162c4708fc7aeafac07ae0a245882dc1d9d66d4f22f9db1a",
    },
    "disks": {
        "square": "c5aaea81d64e8d187df947b1b0c70bfef70cac2a36825c1d72a6f464c5134090",
        "variable": "2749b6325be932a3858d39b2dc8be2b3ec0621a3c7822899e3b64534142ce557",
        "labels": "812849923c8ca0cf440bce428e5b2b18e7d3371a6ca492a7190bfa246b214eb3",
        "chosen_masks": "87be5cf04d503c7fc90549140f067743a473288f5093753fce51bbac5c7e4d1e",
        "salt_pepper": "0beb2e96b1047a80b1bdd822351a3b79cafe1aa59acae6844f71236d01cdf95c",
        "box_square_mean_k3": "2dd791f6c98235886e2988930e89cab4c2a4d889d12868356e261d4a010b1de9",
        "box_variable_mean_k3": "062c92a450cdcba413f2091abc2320da348f771e2682fa6fdaf228be52755c1f",
        "adaptive_literal_mean_k3": "79cc33ada3f8c53a642f0338a8d88f9f6c99c0d13dd87dbc33407ddffc2d685d",
        "adaptive_block_mean_k3": "8b7dc67ee5b484a6440c9f6ba6d2e593ee1bb146b033262ddce6019c0bd76bbf",
        "box_square_mean_k5": "f8926c22b6a6409414fd6b7439bd460429057ea9c9d82bf42a81092f25f8d83b",
        "box_variable_mean_k5": "7c8c697972e07c8306311cb235efbcfd917024e6934838fac5d2a3cb213e87ed",
        "adaptive_literal_mean_k5": "3658c773947fbf9ef47358760fb2c2cc65d24be413d8edd46760f89f52784342",
        "adaptive_block_mean_k5": "c9ff45a7a684331a7e65816a757ff6deb3f5aa97d8a3b8a078b287814101e21b",
        "box_square_median_k3": "053b0ace5f653db5c6e33d4e0ca99bc39f3917825e6583339d167ec39bc9143f",
        "box_variable_median_k3": "fb740a0de4b81db9cc6088248043629ead5d4f6fdb4c3b901bbd234c337670ce",
        "adaptive_literal_median_k3": "941d4eff7ef58c2bace985ced9d5001cb6a93452ffd7be009b015f7583d5a790",
        "adaptive_block_median_k3": "17b309b93e7066bfed518d9ea9cb991488bb370f9a6f22f9a537d5ee37d895ea",
        "box_square_median_k5": "2128dee22cad998bcb0cd58c0bfbb20df83bdb9ad8006b9432f431244bf0aa53",
        "box_variable_median_k5": "9471d1246dd679d908d9147a1b41f980473b289d21337257adfd91f2409d8f1d",
        "adaptive_literal_median_k5": "67efbb85809c8e44a0e1470c7884425807d25f7f386ba57485dc0517f79689c0",
        "adaptive_block_median_k5": "c12bd2f3ade25b8b341cce02161e3fd5169e86404ab1b99dde8da013d684c780",
    },
    "pinwheel": {
        "square": "7452e80701376a6b57427dc36bcd0091b89f11c329e7a1406b8701231c253de4",
        "variable": "76cd8701520977df3314d9acd6e6e118a15fabc286954b550db58109f65f885c",
        "labels": "74135de63085da2d3c6a61db9fc58b98534a7a22555bf78bc0b8c63b630e0783",
        "chosen_masks": "cd82b573a5d72c236e18381299952e1e6d3295251c29280bea1f42f1ace4cf15",
        "salt_pepper": "3b6de90a606bb4bcc4dfdc5feb6053a71721bc71ed74b47eff908814c5c1ec8a",
        "box_square_mean_k3": "83da7e0981aa23c0d45a0e464ba92812133f84e1af3f7d8d5e35ab18c8a04a7b",
        "box_variable_mean_k3": "99185735720f91a4fbedc3f1c8b4c39f54ebcd731446917e8d5b80f4287cc35d",
        "adaptive_literal_mean_k3": "7f603e4c36fa418ea66ad7e1152b31b1ab91151f2ce587a67c3bebd8f46e0827",
        "adaptive_block_mean_k3": "fc9dd966559b93466443b8bead623022024f4b91195122cba15b18f561a7f742",
        "box_square_mean_k5": "1851ecb8ae90ee74531a3fd43fda1292fc2d2deda1a31c4405a1563190d12d0f",
        "box_variable_mean_k5": "26de30f899dffa9ef564b0a1ebc09879042cc466eea0f70d2a8937272858e9e4",
        "adaptive_literal_mean_k5": "2c05faf205c30c06d8e51b3eddacd3597a301cf477f9c70d4a4b684c9d92e7d0",
        "adaptive_block_mean_k5": "b48bb58c8ebf7d50a4e2b841e599e766a659be39d79ab4cfe369bca74f709c58",
        "box_square_median_k3": "757ba7d79931a470b973e12178a76bcbce8d76883ac1be03492608bccb7281d2",
        "box_variable_median_k3": "46d4e6482497c236519b5b211c49d849ffb37236c2dc8a80b247e1f717378be6",
        "adaptive_literal_median_k3": "2806da73ef15261f1a7be170814e7504024b734519239e183351e18999d19d86",
        "adaptive_block_median_k3": "eed708b4213e41b50625a7c720d5afec1d022089b5203a3a0f13464c8c457d25",
        "box_square_median_k5": "fceed08b84ba4b2e038279c5dc618eb76dd787791bc7c5904c33c140c128d09f",
        "box_variable_median_k5": "7668a5b3037e8dfe94302f94fa1f01f4ed82a2b1e99f0b2aa64096f6782ba623",
        "adaptive_literal_median_k5": "7951189456250485ed6ebf8de02188e8087ceb97a3524cd57142f8d7a91d578b",
        "adaptive_block_median_k5": "2212c790878309fcfbaf9d64205c3393d57346832afde579c2c358f546d5dd64",
    },
    "rings": {
        "square": "566ffde8d455c69b6f39488211d5e38522c6b15369ddaf29a6a0396e5bfb696e",
        "variable": "b6ba32321fc87d34e5b0282713ab81f25430623ab23117098349037b7ca554e5",
        "labels": "0992bbfc2c3f5a73c616282c5671ac99e5bae19a1ddaf68172bc45691a85f6e2",
        "chosen_masks": "a4364773e6bb622f47089b25f4ed7174decf7ae54aec72b888fc59ec33f33bbb",
        "salt_pepper": "5ef48d2bf788dc9728fd01f359328098442b8f9063a84e280a422a3e88292fed",
        "box_square_mean_k3": "86015fc1f7682d7da8afa32159803eaa31ada1597b305e17e1ad2c6caea7aae7",
        "box_variable_mean_k3": "86653a29cbdd6d8b486673f2100db6fc9ad8431b147f7a49c084bf39d9ac1d37",
        "adaptive_literal_mean_k3": "8eb3195b408dcede35ee74f13fbe7af4fa367206ccabe351176cc422e340742f",
        "adaptive_block_mean_k3": "5545f9e3a5986cb1ac68253f2709ebb4c3cdb864fbc0c3f988d7a0fbb67acb13",
        "box_square_mean_k5": "24897ed11093e0317d19a55a95517120f5488d86c08d4f21ca68c5341fcdd2c5",
        "box_variable_mean_k5": "aa4a92a321fa672863ecfbbde9ebaff99965b4e699dbbc6a5bd9bbe90082ba38",
        "adaptive_literal_mean_k5": "45f3308d04bf9d1ec3c27fabe60b468b507b482bb4f76d646376aa3ee2998185",
        "adaptive_block_mean_k5": "8a43fa265a557372c8cb66658c36c0ccd3223e63532ddafc82970987d3fb52b5",
        "box_square_median_k3": "951c029dcdd02a234038db04f3164c291e7187cafbea4eba07bbb7a6b0c8ecbb",
        "box_variable_median_k3": "7af42a559f5c476a37e2af35cf0d48074c43f1c09811e00630f129100c922929",
        "adaptive_literal_median_k3": "e6105cb9405eab0d43cc4c62e03e8f4347090d3b864878f9069a4aad26efb1dd",
        "adaptive_block_median_k3": "c6f6dd04788563f928c41df9788ee4806e842551b5df09061c263b7a2b6dd4d3",
        "box_square_median_k5": "f4f69c9ae3887472a0d0ea1ad18928fe5def72aa28f8cadd70384548f844a79c",
        "box_variable_median_k5": "7c7e7e91f190d6a764a088c434a64b1f766d20f97670e21e835375ab81038be1",
        "adaptive_literal_median_k5": "dcc35ddba44103fe136b1af8fdb9fafe71f7d3bdb7297ee0dd8521f71812193e",
        "adaptive_block_median_k5": "f051f4c8104c44f58c8e7a08af3ac5b3d819c4ca7c75de1f4b8dfd17f3c567e8",
    },
    "sawtooth": {
        "square": "bbaaf051ec9dbe3ab11690fe5665454100ad83efd81823b0c808d209c0b2e8e1",
        "variable": "a50bf54a3ca7af2553d0ec0aa15facd32624c5cd0d7f08803c8ebb15fee0df85",
        "labels": "5451b5a602e18ec57b037d0c37d9761e999effafc4e390ee662b31c995f76b9f",
        "chosen_masks": "4799d3259c08372c2e0c4f322c33e82ef385e39270af996fcb7efc0ba9ad487d",
        "salt_pepper": "160cf27d5a350fa993a284ab262409894055c758332ea008ce1a4039b4a11a50",
        "box_square_mean_k3": "717a273963f0d32d31f734f1b06c2f6f73231cb054c4a80b35f0d5ca45ebb780",
        "box_variable_mean_k3": "2563a2803c68ad2a073c69e42e6f8ae5cd9f12b7d407037379eccbd73062605c",
        "adaptive_literal_mean_k3": "926f207a2dd5be16f466f5fa53b4a52518da6d67fd5979fdf1fb62341ff7fb60",
        "adaptive_block_mean_k3": "d889d92d042b5caa9a966b07bb700cee3e8b6f42fc89eabc6c4bf64573d309cf",
        "box_square_mean_k5": "f47a46b0f911490b63f37707e4784501fd15b20db790e88c6cf5337bb53fda75",
        "box_variable_mean_k5": "3172f8f7c6f7d1e6e56fb950c48166306bcfca421a2580ac65fb44a68391a3f0",
        "adaptive_literal_mean_k5": "51821bfafd0127cc8bea6d7dc1c07cc74bf063e55605f6df17b7648093e4fdf5",
        "adaptive_block_mean_k5": "fa763e088f320c75db72b8acb13a638b598d21caa2eef92df20a8850ff992db7",
        "box_square_median_k3": "f1fc128a8e356defd165d5890111fb493196c860f0421d57aa5d32ef2c28daeb",
        "box_variable_median_k3": "353dc3db371c5078c0c1c9472b7065f8c01744cab5335e4ac37b45df3dc57e6a",
        "adaptive_literal_median_k3": "0230c6a3674d3998fa15efcb38c20c7296e060907ac41ca403ba54bed0c8cabf",
        "adaptive_block_median_k3": "920171470f95abccbfd5de11c6a737bb1be3f0d8d6a9233f921244824c68a5c8",
        "box_square_median_k5": "890eda245c4988a5a2aaecc8b0e19efb94d1e34d9c585dfcb662a252b1e0c2b1",
        "box_variable_median_k5": "fdafd04ca677327b0add2a9f0bcd206620ada2eb8aac3f32df49adcb07d437a9",
        "adaptive_literal_median_k5": "c88e4724b3634d4e8a94195ff03de98401d711df7beb17aac158166cd1fc87ee",
        "adaptive_block_median_k5": "0d8635d714d1a4390376fc55b6f12fa2265efc5aabd76d0c8d5fc2429cabf6ad",
    },
}

PSNR_CSV_SHA256 = "ee1b078cd269d41d08eb575fffe4776985765054d43d593e8d95c01a7b7d32e2"


@pytest.mark.parametrize("name", sorted(fixture_images()))
def test_fixture_stages_match_their_pinned_digests(name, masks):
    got = stage_digests(fixture_images()[name], masks)
    want = PINS[name]
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


def test_salt_pepper_psnr_csv_of_the_fixtures_matches_its_pinned_digest(masks):
    cfg = PipelineConfig(inputs=(), noise_kinds=("salt_pepper",), kernels=KERNELS)
    rows = [row for name, img in sorted(fixture_images().items()) for row in evaluate_image(name, img, cfg, masks)]
    assert hashlib.sha256(rows_to_csv(rows).encode("ascii")).hexdigest() == PSNR_CSV_SHA256
