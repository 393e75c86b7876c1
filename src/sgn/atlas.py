"""The connected graphs on 1 to 7 vertices, one per isomorphism class.

``EDGE_MASKS[n - 1]`` lists the 1, 1, 2, 6, 21, 112 and 853 connected graphs
on n vertices as space-separated hex edge masks over
``enumeration.edge_universe(n)``: bit i set means edge i is present.  The
masks are in the order ``enumeration.connected_graphs_upto_iso`` returns,
by edge count and then by sorted edge tuple.

The table was generated once from the networkx graph atlas
(``networkx.generators.atlas.graph_atlas_g``, the 1 253 graphs on up to seven
vertices of Read and Wilson's *An Atlas of Graphs*) by keeping its connected
graphs.  ``tests/test_enumeration.py::test_atlas_table_matches_networkx``
rebuilds it that way wherever networkx is installed, and is the recipe for
regenerating it; ``test_atlas_table_digest_is_pinned`` pins it where networkx
is absent.
"""

EDGE_MASKS = (
    "0",  # n = 1
    "1",  # n = 2
    "3 7",  # n = 3
    "d 34 2d 3c 2f 3f",  # n = 4
    "99 2a8 348 9b 299 1e1 2b8 3c8 29d 3c9 1f1 3e1 7e 2f9 17e 3ec 3f8 3dd 3ed 3fd 3ff",  # n = 5
    (  # n = 6
        "3007 5211 2461 3a1 1258 6910 7007 1329 5231 7e 206e 24e2 3c42 348c 1278 14b8 6d8 7308 7910 "
        "421f 228f 7027 132b 132d 5235 3239 13a9 fa1 4f81 226e 5272 32d2 68e2 5aa2 6f8 16d8 46e8 56c8 "
        "27f 226f b4f 4277 1a3b b6b 2b4b 50f3 ee3 1a3d 12f9 1b39 13e9 52e9 7329 5ab1 5731 5e31 7aa2 "
        "46f8 56d8 3d98 427f 1a3f b6f f67 4b67 5b87 50fb 1b3b 51f3 1b3d 333d 56ad 5ab5 5e35 7a39 527e "
        "5676 3d9a 7ae2 7d98 1bbb 78f3 5773 6fc3 16fd 3b3d 56ed 53f9 7b39 7d99 73e9 567e 5776 5e76 17ef "
        "66ef 55f7 2fe7 3f9b 79f3 56fd 5fb5 5fda fff 76ef 57f7 777b 7f9b 57ff 777f 7ffb 7fff"
    ),
    (  # n = 7
        "604d 6004d 48861 61c1 1021c1 601c1 7841 64181 7184 61c8 1a4420 2003f 2091b 10091b 12081b 30913 "
        "4016d 614d 10604d 40d49 60949 c0949 140949 142849 148861 1061c1 1070c1 10ca41 107841 166041 "
        "7981 12091a 160852 7cc 25cc 61cc 1041cc 601cc 6604c 87c8 1061c8 10e0c8 1a2230 162850 78f 9617 "
        "6007b 14085b 12281b 8d53 108953 18d43 48d43 108d43 50d43 d0943 7cd 61cd 784d 178d 278d 358d "
        "4458d 71c5 46949 142949 162149 162849 b2909 1f109 11d109 139109 13c109 8e71 48a71 49871 68871 "
        "4cc51 148c51 18cc11 1a4861 1a4c21 c98c1 cc8c1 10cb41 ee41 c8e41 1c4c41 10ee01 61136 11a056 "
        "11a846 162852 39ac 87cc e1cc 1061cc 10d14c 10784c 978c c78c 798c 10398c 4598c 6198c 14198c "
        "41a74 10cb48 161a48 108e70 1c4c60 8ff 48df 1008df 2aaf 10ccf 1208cf 102a8f c08d7 1408d7 82aa7 "
        "46a87 a87b 1204db ac5b 8a85b 16085b 12291b 2aeb 12aab 2ecb 102acb 162a0b 68933 1205d3 1214d3 "
        "1604d3 82ae3 92aa3 3dc3 79c3 1039c3 10e943 138943 7c843 a87d ac5d e85d 2a85d 8a85d 1061cd "
        "6984d 16184d d0965 89f9 aa79 8dd9 c9d9 889d9 1089d9 134159 ae59 8aa59 18e69 48e69 58a69 8fc9 "
        "88bc9 108dc9 4c9c9 689c9 c89c9 1489c9 10cb49 162949 58e49 78a49 158a49 158c49 4a971 49a71 "
        "68c71 148c71 4b871 cc871 e1951 14a951 c9a51 4bc51 149c51 4f851 6b851 cb851 14b851 1489e1 "
        "162952 161a52 5e942 da942 15a942 10e1cc 10798c 419f8 499b8 459d8 619d8 c19d8 4d998 69998 c9998 "
        "e1998 1c2998 1b718 9b318 1499a8 1ac470 101fb0 5e960 408ff a87f 448df 1408df e85f 2a85f 8a85f "
        "10a85f 2aef 2ecf 22acf 102acf 19a20f 82ae7 3ec7 7ac7 46ac7 86ac7 142ac7 182ac7 cab07 481fb "
        "1481db 14295b ea5b 2aa5b 10aa5b cc85b 12691b 14a86b 3712b 483f3 cb73 e973 1c8873 487d3 4c3d3 "
        "1483d3 ed53 148dc3 9ad43 1c8d43 cbc43 61fd aa7d ae5d 18e5d ea5d 2aa5d 8aa5d 1ca5d 38a5d 98a5d "
        "10e1cd c994d 18994d 10798d 4a975 4b875 c1b35 e4a55 4bc55 4f855 14b855 ff9 5a879 6c879 12aa59 "
        "5ac59 152c59 da859 15a859 19a859 172949 158e49 198e49 1f8849 7f049 6a971 14a971 c8e71 149c71 "
        "168c71 1e8871 18dc31 19cc31 1acc31 149d51 168e51 cda51 14da51 14dc51 1ccc51 18de11 cee41 7fe "
        "1081fe 1090fe 48cde 4c8de 688de 49cd6 c94d6 698d6 c98d6 1498d6 13b3a 1b33a 1b71a 17b1a 11b31a "
        "7332a 108f72 163a52 165a52 5e9c2 7a9c2 da9c2 852fc 10d99c 1067cc 1661cc f21cc 158d4c 10f98c "
        "1ec458 5b718 15b318 ef70 1ccc70 1ec470 5e9e0 6887f d41cf 15c44f d44e7 77127 ec7b 12a87b 18a87b "
        "cc87b e887b af5b eb5b 2ab5b 8ab5b 10ab5b 16295b ec85b 1a299b 14b86b 1c986b 18da33 5a5d3 5e1d3 "
        "49ed3 69ad3 149ad3 1a3a53 cf853 53ba3 7aaa3 efc3 10f9c3 1798c3 aeb43 57b83 d3b83 153b83 4ff03 "
        "5ef03 1aa7d 6c87d 1ae5d 9aa5d 11aa5d b9ed 17186d 103bad 1067cd f9cd 1079cd 8b9cd 10d9cd 999cd "
        "c99cd 1499cd 10f1cd 189b4d 1c994d 149e4d 1c9a4d f1a4d 9bc4d 159c4d 4ed55 f6615 9b9a5 ee79 "
        "5ac79 13c879 48fd9 4cbd9 68bd9 c8bd9 148bd9 166959 19a959 172959 5ae59 15aa59 f2a59 15ac59 "
        "cf859 5b719 11db19 db319 58be9 13e869 58fc9 98fc9 d8bc9 158bc9 158dc9 163b49 1b8b49 15cd49 "
        "173a49 1f2871 1ecc31 ed951 14de51 1cce51 1e8e51 cfa51 eda51 1f8a51 100fbe 49cde 4d8de 4b8f6 "
        "49ed6 4bcd6 4f8d6 6b8d6 14b8d6 173952 51fac 10e7cc 10f9cc 1669cc 16e1cc 17564c f664c ff8c "
        "166f0c c9e74 1dd264 1e99a4 65eb8 1f6e08 1f9470 1ce9b0 fad30 7f530 1cee30 fe630 1f6630 7f720 "
        "13f720 f807f 1069df 1246df 6a96f 9fcf 109dcf 51dcf 999cf d19cf 1519cf 1691cf 996cf 47ccf c78cf "
        "21bf7 1247d7 1646d7 39cd7 13be7 13fc7 33bc7 93bc7 19ccc7 97747 93f87 1bb3b 126b5b 19cc9b 3bb1b "
        "9bb1b 5a7d3 5e3d3 7a5d3 15a5d3 7a753 7f343 1f9e03 1ffd 3dfd 499fd 1099fd 9f7d 41f7d 58d7d "
        "9997d 5fdd 85bdd 49ddd 4d9dd c99dd 1499dd 109f6d 2bb6d 189bcd 979cd f19cd 143f4d 1c9b4d eb94d "
        "f694d eda4d f9a4d fd84d 87f8d 16798d 17998d 51f75 4bb75 55f55 d1f55 14bb55 5dd55 159d55 19b955 "
        "7ba55 15ba55 10ee79 15ae59 13ed19 fcc69 cdf49 157b49 1f8e49 1ecc71 1ece31 4bbba 6bb9a 1f8b62 "
        "1bb3a2 fe3a2 faf22 a4f7c 129b7c 71ebc adb5c eb36c 12bbac b3bac b3eac e3eac 5f6ac f3e2c 1cad74 "
        "1c9e74 dd674 179b34 1f5554 1ed654 1af714 1f9b14 1fcca4 1e3f24 19f724 1d4cf8 1a3eb8 171eb8 "
        "ceeb8 1d6ea8 1f19f0 f9e70 16bdb0 15ddb0 1d5db0 f79b0 16ef30 bf730 5bff 101bff 919ff 1119ff "
        "629ff 331ff 961ff 1b4ff 16783f fe03f 497df 1919df 9acdf 1c4e5f 14af1f 6eb1f 109fcf 6e3cf d99cf "
        "1599cf 1999cf 14eb57 da1fb 19ccbb da5db 19ccdb 5bf1b 19bb1b 1fa86b 5e7d3 15a7d3 fa3d3 1eba53 "
        "399fd 999fd e997d 61fbd f3a5d 799ed fa96d 73dad 13f8cd 14ef4d 1f694d 7ff5 14cfe5 fe879 1faa59 "
        "1f2e69 9fe71 fe671 1f6671 16f9b1 f79b1 1bfb21 ffe21 149afe e8f76 cafe6 1fc1f2 1f8d72 1fe3a2 "
        "1faf22 1ecb9c f3eac f1fcc 16f9cc 6fecc 139bf4 1df724 1ff704 decf8 7f4f8 1bcb78 fce78 1abeb8 "
        "1ceeb8 bef38 16ef38 1f7aa8 17ef28 1bf1f0 1f9e70 f7db0 1f79b0 1ff1b0 bff30 17fd30 ffe30 1aff90 "
        "f7fa0 1f7ba0 17ff20 1fbf20 1ffb20 987ff c93ff fa47f 1e4b3f 1f613f f1e3f 16e63f fe43f 1de43f "
        "1bf03f dfdf 49fdf a3bdf 18abdf 9b9ef f99cf 1d99cf da3fb 1bccbb 5e7db 15ebcb 1d9cf3 61ffd "
        "15be5d f3dad 1dbcad 1f74ad 1f7aa9 1fbca9 1fe671 1f79b1 17fd31 1ffb21 4affe 67fbc f3dbc 173dbc "
        "1b75bc 1e75bc f9ebc 1aef5c 1a7f9c 1f6b6c 1f3bac 1bf72c 1ff364 1dff24 1ff744 1f69f8 19def8 "
        "eeef8 17f4f8 1f9e78 b7fb8 16feb8 1ddeb8 13ff38 1deee8 177fa8 1ff1f0 16ffb0 fff30 1dffa0 1ffba0 "
        "1387ff bf63f 1f963f 3dedf 1f99cf fdb8f 1eccf7 1eef27 1bf727 1ff707 5bbfb 5bfdb 1abdbd 1f9e3d "
        "15bf5d 1afb9d 1efc6d 1f3dad 1f75ad 1ff4ad 1ebdb5 1bf5b5 1fd6b5 fee79 1f9eb9 1df7a6 1fbfa2 "
        "16ef7c 6ffbc 1abfbc f9fbc 1f1fbc 1e77bc 1f3dbc 1bf73c 1fbb9c 1fbbac 1ddef8 1fbcf8 f7fb8 6e7ff "
        "1df4bf 16ef3f 13f73f 1f9e3f 1fbc3f 5fbdf 1abfbd 1afbbd 1f3dbd 1f7bad 1ff5b5 1ff6b5 1bff39 "
        "f7fbc 1bf7bc 1f77bc 1fe7bc 1fbbbc 1ff6bc ffff0 c7fff 5ffdf 1e7fbd 1bf7bd 1ff6bd 1bff3d 1ffb9d "
        "1fff35 f7ffc 1f7fbc 3ffff 15bfff 1efb7f 1f7faf 1f9ff7 1f9fff 1efff7 1ffff7 1fffff"
    ),
)
