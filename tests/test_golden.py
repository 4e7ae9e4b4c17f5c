"""Golden-output pins: the SHA-256 of ``involute`` stdout on fixed inputs.

Each command runs through ``cli.main`` in process; the ``timing_seconds``
line of ``complete --json`` is dropped.  A change meant to keep
every output byte-identical keeps these digests; a change meant to alter an
output updates its digest and says why.
"""

import hashlib
from pathlib import Path

import pytest

from involute.cli import main

ROOT = Path(__file__).resolve().parents[1]

PINS = {
    "complete problems/example1.pde --division janet --json":
        "6090d4654deaff13e8ebaf0561509555893a68bf522b6964a3201f66500eea97",
    "ivp problems/example1.pde --division janet":
        "b039a594c4e38e217ad5e820cae0bffe9846fd769a860ba2e8735c9d39478db2",
    "hilbert problems/example1.pde --division janet":
        "9dea332e83d2ca0f6835c7c493270163ac5317a960301286168856c75ae4ab59",
    "verify problems/example1.pde --division janet":
        "0a0372121b2b86e0593fc4fe269dfcf570f88cbcb318a67975014f4777ede9bf",
    "complete problems/example1.pde --division lexinduced --json":
        "1e494ad4053f5d8b3715f355fb608786035320bdd41c876881e44f2abbbc4a8a",
    "ivp problems/example1.pde --division lexinduced":
        "d56e08f267c8424b241349d908ff7cd33b71e8cdb02b032b569498cd265f2bdc",
    "hilbert problems/example1.pde --division lexinduced":
        "9dea332e83d2ca0f6835c7c493270163ac5317a960301286168856c75ae4ab59",
    "verify problems/example1.pde --division lexinduced":
        "b82bea63b38db2f114e2ba2d86aebe4fa7ae0b292afcf0c3a36616a9e9272716",
    # the parser reduces sums of quotients over different denominators
    "complete problems/quotient_sums.pde --json":
        "09b0cf38e006604aea9fb1994b82c5ec228e75c5a6b3df49a0a03f57d8e76ec6",
    "verify problems/quotient_sums.pde":
        "156b0d1df2df2243400f16b82b2f756d1d81441adcc2870acc65e1cd054300bd",
    "ivp problems/quotient_sums.pde":
        "4300f39dd273551a479a8072e898d4f6570895c021caae7d6587989cbf1978db",
    "complete problems/fourvar.pde --division janet --json":
        "ac3a24ca6a41f48b0345990243798d88aff06e8a13c13a483dd0fcadc75ee74f",
    "ivp problems/fourvar.pde --division janet":
        "67597e4787fc8e22e87c2d3bbd4dcd1504d3695e02cbad22b8c3df9c170b3169",
    "hilbert problems/fourvar.pde --division janet":
        "7c37b8574e4f85b222adeb3b065991b9aaaf5eee6906856bb7d6f830698522d1",
    "verify problems/fourvar.pde --division janet":
        "2a159745fce92973d44774807a9d5e8d7ba5268682d4b3102b24bfe5690e54a1",
    "complete problems/fourvar.pde --division lexinduced --json":
        "9ed338a3e556118e0aeb0532c8a94f67d39957026fcbecb94a62f7193ad61738",
    "ivp problems/fourvar.pde --division lexinduced":
        "06aca6a49db8be874e88b6acdb2dc8f3e01deadc90dfaf92cf0730af9cbfc777",
    "hilbert problems/fourvar.pde --division lexinduced":
        "7c37b8574e4f85b222adeb3b065991b9aaaf5eee6906856bb7d6f830698522d1",
    "verify problems/fourvar.pde --division lexinduced":
        "4929eda7eba66ca2fec34c81e4ec753bb6e7815525d3d9f852078f2f519d347b",
    # prolongations_examined counts the Janet run that Pommaret reads
    "complete problems/fourvar.pde --division pommaret --json":
        "a61466aed383a342c803887f331c884b4cf03468367202e26a4f6f34d4868791",
    "ivp problems/fourvar.pde --division pommaret":
        "c7948099ebfa04bd96088ca61af32bb882e8833e49e0ef93d335143a00ea2ecb",
    "hilbert problems/fourvar.pde --division pommaret":
        "7c37b8574e4f85b222adeb3b065991b9aaaf5eee6906856bb7d6f830698522d1",
    "verify problems/fourvar.pde --division pommaret":
        "752e360a1e190d0e8718c25aa18016cd37c68ea7ef5f136779ffeabdc99ecb04",
    "complete problems/janet3.pde --division janet --json":
        "87d1c0ff9dbc0ac5346d379fec7f04cd4a3574f70491f094e25d87968650db7a",
    "ivp problems/janet3.pde --division janet":
        "06855d315796ae92abb42aaa8a8c0581a8ec7ef0427e143e314a4887ce268c66",
    "hilbert problems/janet3.pde --division janet":
        "2bb0707fda1d8abb5fde441f6b7a0639b017fda56d8affbce87cfb6a1b5a2799",
    "verify problems/janet3.pde --division janet":
        "2a159745fce92973d44774807a9d5e8d7ba5268682d4b3102b24bfe5690e54a1",
    "complete problems/janet3.pde --division lexinduced --json":
        "634e057d3922d1c375cdc77f987c8426a16ce77f2ca5edaa602ee603d8664c78",
    "ivp problems/janet3.pde --division lexinduced":
        "495b79cd43a6966cedf818ca35928f4d6cb3c1399cfd7f33da6a9444a404b76d",
    "hilbert problems/janet3.pde --division lexinduced":
        "2bb0707fda1d8abb5fde441f6b7a0639b017fda56d8affbce87cfb6a1b5a2799",
    "verify problems/janet3.pde --division lexinduced":
        "4929eda7eba66ca2fec34c81e4ec753bb6e7815525d3d9f852078f2f519d347b",
    "complete problems/janet3.pde --division pommaret --json":
        "2ebb7ce8f924da3e1ba748830c728704b4b90b2bf8e57964e6b443867854884b",
    "ivp problems/janet3.pde --division pommaret":
        "bf240a78d25ddbd457cf4f6f69677a4e74745c6b2c4f2318d1220f050cb87b46",
    "hilbert problems/janet3.pde --division pommaret":
        "2bb0707fda1d8abb5fde441f6b7a0639b017fda56d8affbce87cfb6a1b5a2799",
    "verify problems/janet3.pde --division pommaret":
        "752e360a1e190d0e8718c25aa18016cd37c68ea7ef5f136779ffeabdc99ecb04",
    "complete problems/lewy.pde --division janet --json":
        "9bf5eaa130388d3523d49eaf4ef34034efcc6ffcc547b1bdc00d32b1561c3d0a",
    "ivp problems/lewy.pde --division janet":
        "4812e0681194619038bf4baf7afba7dfbc65ef2528a1a29fc8785a24de7485e6",
    "hilbert problems/lewy.pde --division janet":
        "6028f0f102726b7cd62ecd7b0a9838d741d45b3d736cc6e0eb751486270a8450",
    "verify problems/lewy.pde --division janet":
        "373724053d8012c6445cc99de9db868464c7540faff5fd86b66d0c3fdf6e2e4e",
    "complete problems/lewy.pde --division lexinduced --json":
        "7ae17dff88055d45c2cae24d192eb5778a26bd98f1b63b4c5ff30e731f2765b7",
    "ivp problems/lewy.pde --division lexinduced":
        "36bdbb6b6f91fae7d5d0e619908ca00e8727f580114d6f6c9cb540b6c4598341",
    "hilbert problems/lewy.pde --division lexinduced":
        "6028f0f102726b7cd62ecd7b0a9838d741d45b3d736cc6e0eb751486270a8450",
    "verify problems/lewy.pde --division lexinduced":
        "508b80f630bbb1bd4a6f5dbee279951f10c76e6e656a09b32754cab229b05162",
    "symmetry problems/diffusion.pde":
        "7b0597c7e818a930d5a3bf74cf4e9f932c75add65ac4f7bf8aebd79dd066c0fe",
    "symmetry problems/harrydym.pde":
        "9c1f0ed80623e1d27ba97f34ad6073ea751d8a60bf687b09704885c2c1071592",
    "symmetry problems/transport.pde":
        "9002c5f992d017f4e77838c02dc88225d24cfb81fe8f321ca9a296a4c5cd92b8",
    "symmetry perfbench/inputs/harrydym.pde":
        "9c1f0ed80623e1d27ba97f34ad6073ea751d8a60bf687b09704885c2c1071592",
    "symmetry perfbench/inputs/diffusion.pde":
        "7b0597c7e818a930d5a3bf74cf4e9f932c75add65ac4f7bf8aebd79dd066c0fe",
    "symmetry perfbench/inputs/transport.pde":
        "9002c5f992d017f4e77838c02dc88225d24cfb81fe8f321ca9a296a4c5cd92b8",
    "symmetry perfbench/inputs/kdv.pde":
        "57f4f61a30b968259f3c47eb26d30dfe343f8de6fdc36e353db45fc52f8b04f7",
    "symmetry perfbench/inputs/burgers.pde":
        "0dc0a62a93af9fea6350bedf03f327ba3c99d7cd6a4b1a76f757210497dc3f0e",
    "symmetry perfbench/inputs/heat.pde":
        "0386d2ac0ca35a8624a83eaa4c3dbc4237d23ba77ebe5903e11b77a9518b4e22",
    "symmetry perfbench/inputs/nls.pde":
        "1d88eb0811e9b79b6f7470406ffbbb2c2a9c1e76b9d730987edf4d720939d5df",
    "symmetry perfbench/inputs/zk.pde":
        "ec895ccb7736158d5e2977d98cbd1c938d3d58311a4e56d86f81415cc7c17c13",
    "symmetry perfbench/inputs/kp.pde":
        "366185a28731c908bc0f261dea9cb6b4e0e216fdbf0d0d8c6c39c3de666ae67a",
    "symmetry perfbench/inputs/boussinesq.pde":
        "57a5911d06424626ebae229c2e8d6270503f8ccdc15aad79bd7738b482227b5e",
    "symmetry perfbench/inputs/euler2d.pde":
        "5be9fa8d728b24c7af23ed8c99e2eff2aa278cfe70b8a75a5627d6a1c29cf60e",
    "ivp problems/example1.pde --division janet --json":
        "aca6073a7e063134167658024051557c731bc82d3d342236e7554229b5579b45",
    "hilbert problems/example1.pde --division janet --json":
        "1cbfae32a64818dcbca34e28088cf0e3cecbaede4d02d72e8eb778e744a4ce6e",
    "verify problems/example1.pde --division janet --json":
        "8f45ad41595161a4eeeb1276fdfde151b3aaa2fb62af5714693f1a6d5aacc043",
    "ivp problems/fourvar.pde --division janet --json":
        "133c339d9144d2a8d254354cdf7a56b327922e48364e34ebfc53fb899b2aacd5",
    "hilbert problems/fourvar.pde --division janet --json":
        "23c81b5bb9600b42af828f050273a0da7a124752ec7751867d72b151dbf1d275",
    "verify problems/fourvar.pde --division janet --json":
        "368292439c875f45f7ac09e0e030cbc0c3ec6d66720eef8120f700099d7a5bb8",
    "ivp problems/janet3.pde --division janet --json":
        "8dde4389a1c521345a1f39b50aad3edabc1d9f21038d9a736080fc4814c9dc8f",
    "hilbert problems/janet3.pde --division janet --json":
        "fbd937180f3c9eab39a613a9f403c356b4c36ee1094c6971faef136b4fc2b44a",
    "verify problems/janet3.pde --division janet --json":
        "368292439c875f45f7ac09e0e030cbc0c3ec6d66720eef8120f700099d7a5bb8",
    "ivp problems/lewy.pde --division janet --json":
        "f3ed3303c72856d03d7bb3cc3cf37a7ebc8b9766418732169833c68e6461a3cc",
    "hilbert problems/lewy.pde --division janet --json":
        "3188f1507975ba4b3cf2ad58e50848a5db0aeb3468859eaa3e99f27110e07a63",
    "verify problems/lewy.pde --division janet --json":
        "70df694c522bd93f7c75a02a10533bb7ea3eab2b7921d14b87f4dc87074b00a9",
    "symmetry problems/diffusion.pde --json":
        "b7cfdf874363c88b1aadc1f12efcadd1e210dc3551b1bee16c112e967294d6de",
    "symmetry problems/harrydym.pde --json":
        "63e63c29a79d464e07efec12b18de4e41a94b061d7252c04269be5893bac9c6c",
    "symmetry problems/transport.pde --json":
        "a4d5143aee4e3cd6501af4666ed917ad446debf87bbd12fc459f7ba9f1d5bdfb",
    "symmetry perfbench/inputs/harrydym.pde --json":
        "63e63c29a79d464e07efec12b18de4e41a94b061d7252c04269be5893bac9c6c",
    "symmetry perfbench/inputs/diffusion.pde --json":
        "b7cfdf874363c88b1aadc1f12efcadd1e210dc3551b1bee16c112e967294d6de",
    "symmetry perfbench/inputs/transport.pde --json":
        "a4d5143aee4e3cd6501af4666ed917ad446debf87bbd12fc459f7ba9f1d5bdfb",
    "symmetry perfbench/inputs/kdv.pde --json":
        "a11bcba8cfe72498cb3947ede5a14d0b8196be797b48dde435dd277917925e10",
    "symmetry perfbench/inputs/burgers.pde --json":
        "99248634932a283174303454e7263d4a1e8d8f71e9bed1a478d9ea198fd3a999",
    "symmetry perfbench/inputs/heat.pde --json":
        "c91757ae2347f799b74a25dc6808e9079f0da310ea3336ad3463f5bda23548ea",
    "symmetry perfbench/inputs/nls.pde --json":
        "e30fd18c6e1e956c553308f13057633fddf86984dda851b966c561dd6b47c263",
    "symmetry perfbench/inputs/zk.pde --json":
        "3621fe216b4246ce385d4603c2b98f74cc6c88254486f282cb32080ff54781e7",
    "symmetry perfbench/inputs/kp.pde --json":
        "82a27c979b42e19de95ba20d9d291fdf0f58164e636dd634559ed2499d677d83",
    "symmetry perfbench/inputs/boussinesq.pde --json":
        "d45562d02c8afa5b056bc0ccce3d4b566e257ac7271edad53607e07b6b2335d7",
    "symmetry perfbench/inputs/euler2d.pde --json":
        "94a026546b9ef688c1307d809eeca476774d8ed6e911a611fb6c4e04d0efd3f3",
    "monomial problems/example1.pde --action separations":
        "90f821dcc65047908c0584d6a145da1c125535b7c9e11c0beb227ee060354944",
    "monomial problems/example1.pde --action separations --json":
        "5cd152b7a8a08a5e50f1783ad58d75672a8c2231172df72cb54866852e897b26",
    "monomial problems/example1.pde --action complete":
        "3c8be34a6af51ff2804469e367d4bedbe8edb6512fe057d68a5f076f97f49ffc",
    "monomial problems/example1.pde --action complete --json":
        "53fe5b5f22c1e9ee4d5f8677e6e53fa9ce2c1511891432be3f0499f4aea295b6",
    "monomial problems/example1.pde --action axioms":
        "ed6f6fd7b9fd3435b5c4206e5cd0f31d88c0f841433518f1d8bb169abaa038db",
    "monomial problems/example1.pde --action axioms --json":
        "2f0fbfbd065d988b9739096ec2e0770b40f89ebbfc256b3cc5772bf332806b12",
    "monomial problems/pommaret_basis.pde --action separations":
        "6d0406df26f7482f2182e5826b7c1ac49ddf9a6ee9d3a2c6cba782eac1097185",
    "monomial problems/pommaret_basis.pde --action separations --json":
        "ff4ea91fc3e1b25f8de7a26918122c7a3baf3871b95706b30e17ede61c0563eb",
    "monomial problems/pommaret_basis.pde --action complete":
        "14577c897c6cf04464e0c16f4c8761fead6e4d082621726010b49c87a1411893",
    "monomial problems/pommaret_basis.pde --action complete --json":
        "032ae89efdd8a0aceed84351121aed0b21a802798bb925ff1d2717831cb90a2a",
    "monomial problems/pommaret_basis.pde --action decompose":
        "599485d37967225571c5c1cf30c9e93762882c9884dde92086c270f0a1d9e50c",
    "monomial problems/pommaret_basis.pde --action decompose --json":
        "6c0c9b68e3f57086f16da9ad469022d387e88cbe6dd64e0a8d53bc7f7eaf428a",
    "monomial problems/pommaret_basis.pde --action cartan":
        "c95f9fa173fa4a38f234f0636068e7fdaf67ef5ce61d5ba46976557f3b47b866",
    "monomial problems/pommaret_basis.pde --action cartan --json":
        "f534d5bfc164d69c63e0bfa90eef7b883837020aba27d8f43797f90fc48eb251",
    "monomial problems/pommaret_basis.pde --action axioms":
        "ed6f6fd7b9fd3435b5c4206e5cd0f31d88c0f841433518f1d8bb169abaa038db",
    "monomial problems/pommaret_basis.pde --action axioms --json":
        "2f0fbfbd065d988b9739096ec2e0770b40f89ebbfc256b3cc5772bf332806b12",
}


@pytest.mark.parametrize("command", list(PINS))
def test_stdout_digest(command, capsys):
    argv = command.split()
    argv[1] = str(ROOT / argv[1])
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    out = "".join(line for line in out.splitlines(True)
                  if not line.lstrip().startswith('"timing_seconds"'))
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[command]


REFUSALS = {  # command: (exit code, stderr)
    "monomial problems/example1.pde --action decompose":
        (1, "error: set is not janet-involutive\n"),
    "monomial problems/example1.pde --action cartan":
        (2, "cap exceeded: no finite Pommaret basis, so any cap is exceeded: the leaders of y "
            "are not quasi-stable (witness D[y,{1,0,2}])\n"),
}


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("command", list(REFUSALS))
def test_refusal(command, json_flag, capsys):
    argv = command.split() + json_flag
    argv[1] = str(ROOT / argv[1])
    code, err = REFUSALS[command]
    assert main(argv) == code
    assert capsys.readouterr() == ("", err)
