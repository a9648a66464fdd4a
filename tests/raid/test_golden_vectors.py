"""Byte-compat golden vectors: every shard of every GF(2^8) codec, pinned.

Recorded shard checksums and legacy raid6 stripes on disk only verify if
parity bytes never change, so the SHA-256 of every shard (data and
parity) for fixed payloads is pinned here.  ``GOLDEN`` was recorded from
the log/exp kernel at commit f72545a, *before* the product-table kernel
replaced it.  Regenerate only for a deliberate on-disk format change:
``PYTHONPATH=src python tests/raid/test_golden_vectors.py`` prints it.

Payloads are SHAKE-256 output of a fixed label, so they depend on no
RNG implementation.  ``aont-rs`` draws a fresh key per wrap; the key is
pinned here, which makes the package -- and the RS stage over it --
deterministic.  ``rs(3,9)`` has more than eight parity rows, i.e. two
lane groups in the packed kernel.
"""

import hashlib
from unittest import mock

import pytest

from repro.raid import aont
from repro.raid.codecs import CodecSpec

SPECS = ["raid6@5", "raid6@8", "rs(6,3)", "rs(3,9)", "aont-rs(4,2)"]
FIXED_KEY = bytes(range(32))


def _sizes(k):
    return [0, 1, k - 1, 4096, 65536 + 7]


def _payload(size):
    return hashlib.shake_256(b"golden-%d" % size).digest(size)


def _encode(spec, size):
    codec = CodecSpec.parse(spec).instantiate()
    with mock.patch.object(aont.secrets, "token_bytes", lambda n: FIXED_KEY[:n]):
        meta, shards = codec.encode(_payload(size))
    return codec, meta, shards


def _digests(shards):
    return [hashlib.sha256(s).hexdigest() for s in shards]


GOLDEN = {
    ("raid6@5", 0): [
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    ("raid6@5", 1): [
        "acac86c0e609ca906f632b0e2dacccb2b77d22b0621f20ebece1a4835b93f6f0",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "acac86c0e609ca906f632b0e2dacccb2b77d22b0621f20ebece1a4835b93f6f0",
        "74cd9ef9c7e15f57bdad73c511462ca65cb674c46c49639c60f1b44650fa1dcb",
    ],
    ("raid6@5", 2): [
        "e9b0c031f0493d3fd6b0b668260c79e7efe734bfd4b4115f9d82bc3be609c294",
        "67c872d4912c71f15d2d6134ddf1d33d46f4bab2b56fe787522e7e4c9b58657d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "1f18d650d205d71d934c3646ff5fac1c096ba52eba4cf758b865364f4167d3cd",
        "148de9c5a7a44d19e56cd9ae1a554bf67847afb0c58f6e12fa29ac7ddfca9940",
    ],
    ("raid6@5", 4096): [
        "670eb592697fa8e3ebd33d0f4e739a3e57b33c79fe2f14e6c6e46538bc396345",
        "a3916fc637de2449ae9e5a65f7de72886477508ccc11f867b90839ef75fc7641",
        "c6b93622b47f3fcb33e7cfe2365d4f90340c725b704a3aca53e1049e395489e6",
        "3285779ef15fb389c0d7e7224ee48750bcf9878fac2874acbb76112fac379456",
        "a9ebfddc4aaec382c5502fc9ac473cbf0398f558baa0e9f729242c73b165f3de",
    ],
    ("raid6@5", 65543): [
        "500e347e4f71ec936ca1d3b338b934c7f24ca03fb3b36070ad5c0c7b5d8d5c11",
        "87357da07a47eaf268531b04e54a39d1b511fb8bae40f407eccd51a86d25d22a",
        "c2ce377fdbaacd9d7d2b64afba4d946fbaf883ff8448d779adc1c80cc9de39e4",
        "2fd19e062672569fab706221b0aca9faa7e1b01654183ce6142c46b54c4ef18a",
        "8100e95efd91afb5d6bf0c9b1a9765b60c686a57ac5ed0467a372d68ba3b519a",
    ],
    ("raid6@8", 0): [
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    ("raid6@8", 1): [
        "acac86c0e609ca906f632b0e2dacccb2b77d22b0621f20ebece1a4835b93f6f0",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "68aa2e2ee5dff96e3355e6c7ee373e3d6a4e17f75f9518d843709c0c9bc3e3d4",
        "0bfe935e70c321c7ca3afc75ce0d0ca2f98b5422e008bb31c00c6d7f1f1c0ad6",
    ],
    ("raid6@8", 5): [
        "ee6bb86b44339392bae631c8f61dd8f009243c635adab33c0b20923a2794bf22",
        "de5a6f78116eca62d7fc5ce159d23ae6b889b365a1739ad2cf36f925a140d0cc",
        "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881",
        "333e0a1e27815d0ceee55c473fe3dc93d56c63e3bee2b3b4aee8eed6d70191a3",
        "aa7225e7d5b0a2552bbb58880b3ec00c286995b801a7aeb69281e76a8b4908de",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "1f18d650d205d71d934c3646ff5fac1c096ba52eba4cf758b865364f4167d3cd",
        "8a331fdde7032f33a71e1b2e257d80166e348e00fcb17914f48bdb57a1c63007",
    ],
    ("raid6@8", 4096): [
        "7bbe01609be1747428fe6a0022e4181449f6312be04496781c1fab2f439d708a",
        "fecff3fdbbefac8d6b097c097675a2e8f19bba38ed9beb1f09385e153f99ef26",
        "a87381ddf3007dbb28079b4e2c2936c12dbccc8bb551c84a9bd0c65f9de4e554",
        "a924fbd739cb227851fefc34ff5626fa58595572a4a6bdd76622b73753a3ae8d",
        "c84d77101e2b4c28d657cf07eb22b13c09503644fb968ce71d5e518da0fdd4b7",
        "f2a5ce310591c359f19c625ab144ad0a6487f5e0c9bb3b4b7c5e551cee330b1c",
        "b683e542c2604ac70a9350dd2db754ddc56489fa3e7b8ca66400b02725f120f8",
        "db81e226f7de82c48f8fbe432ca004e1c18a1701b62989319e37a960cd0adfa9",
    ],
    ("raid6@8", 65543): [
        "4867813576dae6868ad28bd005071b6030836c7fdda2fa6365b65face1d41f79",
        "ba84dcb97f733327efac470dbfe4df531ed5f19d9c8f1d4482dfe92186819368",
        "e9baaf731156e355fd768b1bbe3ca04e806cf103b3c4a9f20c5bdf52608fe82a",
        "0f8d2872ed41d9241c610bb52408ae40ca57ec736520e9272469c7275c7fe5a4",
        "be86f3834d7e955405ff60b55cf7cf8080f0884b150e32982933c7b7c8ffca74",
        "1035b2fbc8de2697a3b198c2a2906bbf53f05aea4d0d44c6ae8cb2d63b766354",
        "a42ca2e7993c52b85d4f34f7bbdbd897a215df979cf58091d6d8bf0aef8e0d14",
        "a7ba6d36965a1a2ddc68c35d27272b7bf7b96a30afa8204b26a644141547c945",
    ],
    ("rs(6,3)", 0): [
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    ("rs(6,3)", 1): [
        "acac86c0e609ca906f632b0e2dacccb2b77d22b0621f20ebece1a4835b93f6f0",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "f299791cddd3d6664f6670842812ef6053eb6501bd6282a476bbbf3ee91e750c",
        "83891d7fe85c33e52c8b4e5814c92fb6a3b9467299200538a6babaa8b452d879",
        "5ee0dd4d4840229fab4a86438efbcaf1b9571af94f5ace5acc94de19e98ea9ab",
    ],
    ("rs(6,3)", 5): [
        "ee6bb86b44339392bae631c8f61dd8f009243c635adab33c0b20923a2794bf22",
        "de5a6f78116eca62d7fc5ce159d23ae6b889b365a1739ad2cf36f925a140d0cc",
        "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881",
        "333e0a1e27815d0ceee55c473fe3dc93d56c63e3bee2b3b4aee8eed6d70191a3",
        "aa7225e7d5b0a2552bbb58880b3ec00c286995b801a7aeb69281e76a8b4908de",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "d1211001882d2ce16a8553e449b6c8b7f71e61836efc2e416143808f20e721e7",
        "3f79bb7b435b05321651daefd374cdc681dc06faa65e374e38337b88ca046dea",
        "966c7c47125c74575a9a1153b799faf55be33a04e3d9f98760a3eeac377103df",
    ],
    ("rs(6,3)", 4096): [
        "7bbe01609be1747428fe6a0022e4181449f6312be04496781c1fab2f439d708a",
        "fecff3fdbbefac8d6b097c097675a2e8f19bba38ed9beb1f09385e153f99ef26",
        "a87381ddf3007dbb28079b4e2c2936c12dbccc8bb551c84a9bd0c65f9de4e554",
        "a924fbd739cb227851fefc34ff5626fa58595572a4a6bdd76622b73753a3ae8d",
        "c84d77101e2b4c28d657cf07eb22b13c09503644fb968ce71d5e518da0fdd4b7",
        "f2a5ce310591c359f19c625ab144ad0a6487f5e0c9bb3b4b7c5e551cee330b1c",
        "d4a2eede8f256fb1c63417f3a6e81b4fa1667874e3a1752c130f4e82b3e34e9f",
        "2919777a1c58d7d6e3f443abe0147c4a94d0099f08e959c845a07093fd2ac2ff",
        "2a49db4d4ea6422e93a32326279a50791685b5182b496b10d9c708b74723c072",
    ],
    ("rs(6,3)", 65543): [
        "4867813576dae6868ad28bd005071b6030836c7fdda2fa6365b65face1d41f79",
        "ba84dcb97f733327efac470dbfe4df531ed5f19d9c8f1d4482dfe92186819368",
        "e9baaf731156e355fd768b1bbe3ca04e806cf103b3c4a9f20c5bdf52608fe82a",
        "0f8d2872ed41d9241c610bb52408ae40ca57ec736520e9272469c7275c7fe5a4",
        "be86f3834d7e955405ff60b55cf7cf8080f0884b150e32982933c7b7c8ffca74",
        "1035b2fbc8de2697a3b198c2a2906bbf53f05aea4d0d44c6ae8cb2d63b766354",
        "902ccb76cef720cf940b20c7a87b5a3245aeeae896423a194d19fcb66bb8b733",
        "3cb82b3c42ea8b81a4bb5e115272d206a9d28697cbb004f0f0386d574bdc73ae",
        "38f0ef215df51491e03d04214d97c3228f4dee4deacb833ad647eba6d98bb568",
    ],
    ("rs(3,9)", 0): [
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    ("rs(3,9)", 1): [
        "acac86c0e609ca906f632b0e2dacccb2b77d22b0621f20ebece1a4835b93f6f0",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "09fc96082d34c2dfc1295d92073b5ea1dc8ef8da95f14dfded011ffb96d3e54b",
        "77adfc95029e73b173f60e556f915b0cd8850848111358b1c370fb7c154e61fd",
        "bd4fc42a21f1f860a1030e6eba23d53ecab71bd19297ab6c074381d4ecee0018",
        "f299791cddd3d6664f6670842812ef6053eb6501bd6282a476bbbf3ee91e750c",
        "83891d7fe85c33e52c8b4e5814c92fb6a3b9467299200538a6babaa8b452d879",
        "5ee0dd4d4840229fab4a86438efbcaf1b9571af94f5ace5acc94de19e98ea9ab",
        "ef6cbd2161eaea7943ce8693b9824d23d1793ffb1c0fca05b600d3899b44c977",
        "4d7b3ef7300acf70c892d8327db8272f54434adbc61a4e130a563cb59a0d0f47",
        "9a7b7b3a5d50781b4f4768cd7ce223168f6b449b78ad6ac594db5788c3b805d1",
    ],
    ("rs(3,9)", 2): [
        "e9b0c031f0493d3fd6b0b668260c79e7efe734bfd4b4115f9d82bc3be609c294",
        "67c872d4912c71f15d2d6134ddf1d33d46f4bab2b56fe787522e7e4c9b58657d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "49994461d6b46390f014c8c5275a8591ef8764760afe2739cee23f6fbe285778",
        "452ba1ddef80246c48be7690193c76c1d61185906be9401014fe14f1be64b74f",
        "bceef655b5a034911f1c3718ce056531b45ef03b4c7b1f15629e867294011a7d",
        "88aa3e3b1f22c616b1817981215e7d1e75fa32b22233ebb8477f64600a5ace1f",
        "7da59d0dfbe21f43e842e8afb43e12a6445bbac07c2fc26984c71d0de3f99c9c",
        "30a5bfa58e128af9e5a4955725d8ad26d4d574a537b58b7dc6d357acad578572",
        "74e1ade320c66075468e17cfab33f41e8e0eaca45edb6dd7b086c49a358d2a69",
        "de7d1b721a1e0632b7cf04edf5032c8ecffa9f9a08492152b926f1a5a7e765d7",
        "ab897fbdedfa502b2d839b6a56100887dccdc507555c282e59589e06300a62e2",
    ],
    ("rs(3,9)", 4096): [
        "670eb592697fa8e3ebd33d0f4e739a3e57b33c79fe2f14e6c6e46538bc396345",
        "a3916fc637de2449ae9e5a65f7de72886477508ccc11f867b90839ef75fc7641",
        "c6b93622b47f3fcb33e7cfe2365d4f90340c725b704a3aca53e1049e395489e6",
        "ca174ea90782e2b6f38a0fa181a8798c3713b7903a28c1027605f865b916774f",
        "bce706b5b22b2696c06027471a01d28cb50b9d00bbccc185d1dc7488ec1d8882",
        "034454c6f9c6905586a586cc8edb05d5ef067e88636e5bf91f7d492122ed3773",
        "06b8cc59ac6476330d64aa8efc3d69b864248b2fa1c76564507cd1896312d5eb",
        "33e3d33407b923062ebae609be2a933c861d697aab011ccf7a925da68f704bad",
        "e3e91ae53930fa1c51e7ab322d813626890b4b30b10a3169123edb9ea8177093",
        "4ed72992d2cc4d9a173f8a9bbc225747b2f53f11a441195bac5cde1a9e784158",
        "4f969cb05f1ef739616b122a357ab94df0b37efb8e228f413980de9ab0698933",
        "3b120fc62ec127588ee8559c9db9bdb641f1fa33bd72dae2ab9f3b0d22982048",
    ],
    ("rs(3,9)", 65543): [
        "500e347e4f71ec936ca1d3b338b934c7f24ca03fb3b36070ad5c0c7b5d8d5c11",
        "87357da07a47eaf268531b04e54a39d1b511fb8bae40f407eccd51a86d25d22a",
        "c2ce377fdbaacd9d7d2b64afba4d946fbaf883ff8448d779adc1c80cc9de39e4",
        "470a74390de7791c6f1067578a6ff3bde10e389b20a45f7bc55beb4cdcfa09f0",
        "e005d6c0ce0729c79dbdef1e8ebaac8a28f1b7c54bbb3c766e5742c9de2c802b",
        "5f27717c98c316f3fe9aee856f466fe227c6804f430717c85484564362c475a1",
        "15595f1af095f0f17a33f323be1c95df8054bd6ddb6083a3ef8efdd30370e199",
        "1bc82b0757ff5c09dfe5dee2c45ad09e2aa57f2e0d0b10b2830589d76fcec70b",
        "9570087919dec73f9ef18534055d2439e0f2ea33002535019d6da2832c6f5bca",
        "b514fdc6312638beec09aec8aa77fc7a9e0922c7a56be966d021b6d53bcd3ef5",
        "86f8618b108e49f491cde001d3c77a28f00e161d51bcc89a7f8c1605a8f1ffd3",
        "1a5b3da9523fd52bcd2fa28fc39d26ab2374b729fd52da42f01e2d8eac3f7144",
    ],
    ("aont-rs(4,2)", 0): [
        "1737635830be952d1693a9755662a0988884560f50868f9c3c613d157c608c39",
        "1b6cc900e137994ad0b182aaca65debe27444fe1e73f87b1cd2f6ddbc5d5902a",
        "7651fd010c257d6313e43f560f12a35a4b7aaddcce3f729260862d892dff2864",
        "025c8997ea85eb6a2af2d7c37ce1b0f1211df632613be57908919c0736d55627",
        "e6c001e41ade621f2f6acd7d628a74cad8ddab984479a8467046c894417b5418",
        "ee05f792fe1d6d505bd3fd53848fc7373f7f8a73007013b7e586e1f083e11564",
    ],
    ("aont-rs(4,2)", 1): [
        "e108e85f8985ca5f1dbbd3dd2e132db89fa828bd7d8d77b1a6ab9d664ae61f83",
        "68ba82370ddbdc2d2e5408850869a91e3d1cb515bf3fbf84b53340e1c66ebc9b",
        "1adf53ae9bd7883b0fa3e9dd36a5b8c7fdc7ceb6013d497dcf3e53ebd7a33201",
        "ffa6a026c79137ee9076f13e9b543fd35d0d57f7fc99e37ec01d4a795acd665e",
        "adcd4944dea1038d60d8d8aa8690d38f2d766795398626401b05f0c49b2bec86",
        "7b40dc8b70d15e353405d1666a417538a62cd8cecf20c5c5dde36ac05a9504df",
    ],
    ("aont-rs(4,2)", 3): [
        "543b0b4331f9072c68d98ab2d1dbba4ee3195f059298c5c93198a8a807b1cb91",
        "8b465898bd3b53f5c66b99cca7ebcc54949c30300bd7931c646e6875e8893c88",
        "3c1bd5ec9f63ea9262180b317a2d5f8d348f53a16ee5b78a323cd672e89a7cba",
        "627f51bb0228b0bbd4a6f06600409caa7efd758aba60094e4bdc800db5a6cb16",
        "710de59c9510aa7e5b1508e63351e3aca1b3796127e6f32d7011010e9af0f191",
        "59b2bc698a74371cd0a6e428d008ed83542755202514832326451393d7f9ffa9",
    ],
    ("aont-rs(4,2)", 4096): [
        "181fd9dc07d82e7a602b2011ac222b9d9811ec554147b941b51fa19dcc134f3b",
        "6db236c995936295479e23cfcab17733a447c7bfc0ea7f7bbbe489f5ac96f03d",
        "20f663e1746d4002e662cf282586eae58e9fa6b9ebb03a8e0b4db6007422100d",
        "d9d880ef8f8656f57f44bfda4330f95e9dc39312fdff3725cce10aca2bc46c95",
        "9241421c7751a5fe69c34c52e2b8654a696a3b857a8d1bcdcffbc0fde2241d89",
        "dafccc554fa0b63341a38ec3e93a8da0022e5c540bfebe53e84070c4fd40a8b5",
    ],
    ("aont-rs(4,2)", 65543): [
        "68abced2c6b4e0d27a0ced345ea7a53dbc7ef0e5895ff9d30d5c14337959eb87",
        "500a90a37ec7d59aa4239841f27cc67987091996c8ed10cbea97958f22535df2",
        "517d3f5c41500c0d0d4be38f46c60ea79936d555effbf81bc196649c6d4abbdd",
        "4a556f9cd09133c7ee6cdd70fdc86b865b53607a5aa2bee1bb8bfb76489e2150",
        "7c31b1b192d40d51120c67e2ee9ea9ef895d816e2de3868d3ea594cbceb0b606",
        "f450d3cdf9de3396ae0c81133eb04cd02e37020788cf86d286c61c336834585d",
    ],
}


@pytest.mark.parametrize("spec,size", list(GOLDEN))
def test_every_shard_matches_the_recorded_digest(spec, size):
    _, _, shards = _encode(spec, size)
    assert _digests(shards) == GOLDEN[spec, size]


@pytest.mark.parametrize("spec,size", list(GOLDEN))
def test_rebuilt_shards_and_degraded_reads_match_too(spec, size):
    codec, meta, shards = _encode(spec, size)
    for index in range(codec.n):
        # The k survivors furthest "after" the lost shard, wrapping round:
        # every rebuild mixes data and parity sources differently.
        order = [(index + 1 + j) % codec.n for j in range(codec.n - 1)]
        others = {i: shards[i] for i in order[-codec.k :]}
        rebuilt = codec.rebuild(meta, index, others)
        assert hashlib.sha256(rebuilt).hexdigest() == GOLDEN[spec, size][index]
    survivors = {i: shards[i] for i in range(codec.m, codec.n)}
    assert codec.decode(meta, survivors) == _payload(size)


def test_the_specs_cover_both_generators_and_two_lane_groups():
    assert {spec for spec, _ in GOLDEN} == set(SPECS)
    assert CodecSpec.parse("rs(3,9)").instantiate().m > 8


if __name__ == "__main__":
    print("GOLDEN = {")
    for spec in SPECS:
        for size in _sizes(CodecSpec.parse(spec).instantiate().k):
            digests = _digests(_encode(spec, size)[2])
            print(f'    ("{spec}", {size}): [')
            for digest in digests:
                print(f'        "{digest}",')
            print("    ],")
    print("}")
