"""``load_corpus`` and ``write_corpus`` against the row-by-row loader and
the tuple-sorting writer they replaced."""

import pytest

import corpus_oracle
from interestsim.corpus import CSV_NAMES, FormatError, IntegrityError, load_corpus, write_corpus
from interestsim.synthgen import GenConfig, generate

HEADERS = {
    "users": "user_id,gender,age,city_id\n",
    "videos": "video_id,tags\n",
    "views": "user_id,video_id,day\n",
    "friends": "user_a,user_b\n",
    "groups": "user_id,group_id\n",
    "messages": "user_a,user_b,day,count\n",
}
BASE = {
    "users": "1,M,20,0\n2,F,25,0\n3,F,30,1\n4,M,35,1\n",
    "videos": "10,5|6\n11,6\n12,7|5|8\n",
    "views": "1,10,0\n1,11,-3\n2,10,-1\n3,12,-30\n4,11,0\n",
    "friends": "1,2\n3,2\n1,4\n",
    "groups": "1,100\n2,100\n3,101\n",
    "messages": "1,2,-1,3\n2,1,-2,1\n3,2,-5,2\n",
}

# each case replaces the bodies of some files of BASE
CASES = {
    "valid": {},
    "empty_logs": {"views": "", "friends": "", "groups": "", "messages": ""},
    "bad_int_users": {"users": "1,M,20,0\n2,F,2x,0\n"},
    "bad_int_videos": {"videos": "10,5|6\n1O,6\n"},
    "bad_int_tag": {"videos": "10,5|6\n11,6|x|7\n12,y\n"},
    "bad_int_views": {"views": "1,10,0\n1,11,zero\n"},
    "bad_int_friends": {"friends": "1,2\n3,b\n"},
    "bad_int_groups": {"groups": "1,100\n2,g\n"},
    "bad_int_messages": {"messages": "1,2,-1,3\n2,1,-2,many\n"},
    "bad_int_hex": {"views": "1,10,0\n0x1,10,0\n"},
    "bad_int_exponent": {"views": "1,1e3,0\n"},
    "bad_int_empty": {"groups": "1,\n"},
    "wrong_field_count": {"views": "1,10,0\n1,11\n2,10,-1\n"},
    "wrong_field_count_after_bad_int": {"views": "1,x,0\n1,11\n"},
    "bad_int_after_wrong_field_count": {"views": "1,10\n1,x,0\n"},
    "bad_gender": {"users": "1,M,20,0\n2,X,25,0\n"},
    "bad_gender_before_bad_age": {"users": "1,X,old,0\n"},
    "bad_user_id_before_bad_gender": {"users": "u,X,20,0\n"},
    "duplicate_user": {"users": "1,M,20,0\n2,F,25,0\n1,F,30,1\n"},
    "duplicate_filtered_user": {"users": "1,M,20,0\n2,F,25,0\n4,M,50,1\n4,M,35,1\n"},
    "duplicate_video": {"videos": "10,5|6\n11,6\n10,7\n"},
    "empty_tags": {"videos": "10,5|6\n11,\n12,7\n"},
    "view_day_out_of_range": {"views": "1,10,0\n1,11,1\n"},
    "view_day_before_horizon": {"views": "1,10,-31\n"},
    "self_loop_friendship": {"friends": "1,2\n3,3\n"},
    "self_loop_message": {"messages": "1,2,-1,3\n2,2,-1,1\n"},
    "message_day_out_of_range": {"messages": "1,2,-1,3\n2,1,0,1\n"},
    "message_count_zero": {"messages": "1,2,-1,3\n2,1,-2,0\n"},
    "message_count_negative": {"messages": "1,2,-1,-4\n"},
    "header_mismatch": {"views": "user,video,day\n1,10,0\n"},
    "missing_header": {"groups": ""},
    "blank_lines": {"views": "\n1,10,0\n\n\n1,11,-3\n\n", "users": "1,M,20,0\n\n2,F,25,0\n3,F,30,1\n4,M,35,1\n"},
    "blank_line_before_bad_row": {"friends": "1,2\n\n\n3,x\n"},
    "quoted_and_padded": {"views": '"1","10",0\n 1,11 ,-3\n+2,1_0,-1\n', "users": '1,"M",20,0\n2,F," 25",0\n3,F,30,1\n4,M,35,1\n'},
    "quoted_newline_before_bad_row": {"videos": '10,"5|6"\n11,"6\n"\n12,x\n'},
    "duplicate_views": {"views": "1,10,0\n1,10,0\n2,10,-1\n1,10,0\n"},
    "age_filtered_everywhere": {
        "users": "1,M,20,0\n2,F,25,0\n3,F,30,1\n4,M,45,1\n5,F,9,0\n",
        "views": "1,10,0\n4,11,0\n4,10,-2\n5,12,-1\n",
        "friends": "1,2\n1,4\n4,3\n5,2\n",
        "groups": "1,100\n4,100\n",
        "messages": "1,2,-1,3\n1,4,-1,3\n3,4,-2,2\n",
    },
    "message_both_orientations": {"messages": "1,2,-1,3\n2,1,-1,4\n1,2,-1,2\n3,2,-5,2\n"},
    "unknown_user": {"views": "1,10,0\n9,10,0\n"},
    "unknown_video": {"views": "1,10,0\n1,99,0\n"},
    "message_between_non_friends": {"messages": "1,3,-1,1\n"},
    # where numpy's C parser and ``int`` might part ways
    "whitespace_only_line": {"views": "1,10,0\n   \n1,11,-3\n"},
    "tab_padded_field": {"views": "1,\t10,0\n1,11\t,-3\n", "friends": "\t1\t,2\n3,2\n1,4\n"},
    "trailing_comma": {"friends": "1,2\n3,2,\n"},
    "hash_inside_field": {"groups": "1,100\n2,1#00\n"},
    "hash_before_field": {"messages": "1,2,-1,3\n#3,2,-5,2\n"},
    "signed_zero_and_plus": {"views": "+1,10,-0\n1,+11,-3\n+2,10,-1\n", "friends": "1,2\n-0,2\n"},
    "last_row_without_newline": {"messages": "1,2,-1,3\n3,2,-5,2", "groups": "1,100\n3,101"},
    "header_only": {"groups": ""},
    "header_only_without_newline": {"groups": "user_id,group_id"},
    "bom_before_header": {"views": "\ufeffuser_id,video_id,day\n1,10,0\n"},
    "separator_control_char": {"views": "1,10,0\n1,\x1c11,-3\n"},
    "cr_line_ends": {"views": "1,10,0\r1,11,-3\r2,10,-1\r"},
    "cr_blank_line": {"friends": "1,2\r\r3,x\n"},
    "blank_line_before_bad_value": {"views": "1,10,0\n\n1,11,1\n"},
    "cr_blank_line_before_bad_value": {"friends": "\r1,2\n3,3\n"},
    "every_row_too_wide": {"views": "1,10,0,5\n1,11,-3,5\n"},
}


# cases whose files are written without the header
RAW = {"header_mismatch", "missing_header", "header_only_without_newline", "bom_before_header"}


def write_case(directory, name, line_end):
    case = CASES[name]
    for file, header in HEADERS.items():
        text = case.get(file, BASE[file])
        if not (file in case and name in RAW):
            text = header + text
        (directory / CSV_NAMES[file]).write_bytes(text.replace("\n", line_end).encode())


def outcome(load, directory):
    try:
        c = load(directory)
    except (FormatError, IntegrityError) as e:
        return type(e), str(e), getattr(e, "file", None), getattr(e, "line", None)
    return c, c.report


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
@pytest.mark.parametrize("name", CASES)
def test_load_matches_row_by_row_oracle(tmp_path, name, line_end):
    write_case(tmp_path, name, line_end)
    got, want = outcome(load_corpus, tmp_path), outcome(corpus_oracle.load_corpus, tmp_path)
    assert got == want


def test_write_matches_tuple_sorting_oracle(tmp_path, small_corpus):
    c, _ = small_corpus
    write_corpus(c, tmp_path / "new")
    corpus_oracle.write_corpus(c, tmp_path / "old")
    for name in CSV_NAMES.values():
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()


def test_generated_corpus_loads_as_oracle_loads(tmp_path):
    c, _ = generate(GenConfig(seed=3, n_users=200, n_videos=80, n_tags=40, n_topics=6, n_cities=4, n_groups=10))
    write_corpus(c, tmp_path)
    got, want = outcome(load_corpus, tmp_path), outcome(corpus_oracle.load_corpus, tmp_path)
    assert got == want and got[0] == c
