//! Totality of the CSV importers: every path that turns CSV bytes into rows
//! or scored tuples returns `Ok` or `Err` and never panics — on arbitrary
//! bytes, on arbitrary records under a valid header, on valid CSVs with one
//! byte changed, and on valid CSVs cut at every length.
//!
//! Each input goes through `table_from_csv`, the scored open of
//! `CsvDataset::from_text` and `CsvDataset::from_path`
//! (`CsvDataset::scored_rows`), and the spilled open of both at run buffers
//! of 1–3 tuples with a fan-in of 2, so every input that scores at all also
//! spills, folds and replays run files.

use proptest::prelude::*;
use ttk_pdb::{parse_expression, table_from_csv, CsvDataset, CsvOptions, SpillOptions};

/// The valid inputs the mutations and truncations start from: quoted fields
/// (with commas, doubled quotes and a multi-byte character), ME groups,
/// blank lines and columns in any order.
const CORPUS: [&str; 3] = [
    "score,weight,label,probability,group_key\n\
     9,3,\"a,b\",0.5,g1\n\
     \n\
     7,1,\"say \"\"hi\"\"\",1.0,\n\
     4,2,plain,0.5,g1\n\
     \n\
     2,5,\"caf\u{e9}\",0.8,g2\n\
     6,4,x,0.2,g2\n",
    "\n\nprobability,score,weight,group_key,label\n\
     0.25,10,5,g,\"q\"\n\
     0.25,12,6,g,r\n\
     0.5,11,1,,s\n\
     0.125,8,2,h,\"t,u\"\n",
    "score,weight,probability\n1,1,1\n2,2,0.5\n3,3,0.25\n4,4,0.125\n5,5,0.0625\n",
];

/// Runs every CSV import path over `bytes`, draining each to the end. The
/// input file and the spill runs live in a directory private to `test`.
fn import_all(bytes: &[u8], test: &str) {
    let dir = std::env::temp_dir().join(format!("ttk-csv-decoders-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let text = String::from_utf8_lossy(bytes).into_owned();
    let path = dir.join("input.csv");
    std::fs::write(&path, bytes).unwrap();
    let options = CsvOptions::default();
    let score = parse_expression("score / weight").unwrap();

    let _ = table_from_csv("t", &text, &options);
    let from_text = || CsvDataset::from_text("t", text.clone(), options.clone(), score.clone());
    let from_path = || CsvDataset::from_path(&path, options.clone(), score.clone());
    let _ = from_text().scored_rows();
    let _ = from_path().scored_rows();
    for run_buffer in 1..=3 {
        let spill = SpillOptions {
            run_buffer_tuples: run_buffer,
            temp_dir: Some(dir.clone()),
            max_fan_in: 2,
        };
        for dataset in [from_text(), from_path()] {
            if let Ok(spilled) = dataset.with_spill(spill.clone()) {
                let _ = spilled.scored_rows();
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_corpus_imports_cleanly() {
    let options = CsvOptions::default();
    let score = parse_expression("score / weight").unwrap();
    let rows = [5, 4, 5];
    for (csv, rows) in CORPUS.iter().zip(rows) {
        assert_eq!(table_from_csv("t", csv, &options).unwrap().len(), rows);
        let dataset = CsvDataset::from_text("t", *csv, options.clone(), score.clone());
        assert_eq!(dataset.scored_rows().unwrap().len(), rows);
        let spilled = dataset.with_spill(SpillOptions::with_run_buffer(1).with_max_fan_in(2));
        assert_eq!(spilled.unwrap().scored_rows().unwrap().len(), rows);
    }
}

#[test]
fn cut_csvs_never_panic() {
    for csv in CORPUS {
        for cut in 0..=csv.len() {
            import_all(&csv.as_bytes()[..cut], "cut");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..257)) {
        import_all(&bytes, "arbitrary");
    }

    #[test]
    fn arbitrary_records_under_a_valid_header_never_panic(
        pick in 0usize..3,
        body in proptest::collection::vec(0u8..=255, 0..257),
    ) {
        let header = CORPUS[pick].trim_start().lines().next().unwrap();
        let mut bytes = format!("{header}\n").into_bytes();
        bytes.extend(body);
        import_all(&bytes, "records");
    }

    #[test]
    fn one_changed_byte_never_panics(
        pick in 0usize..3,
        at in 0usize..1 << 20,
        value in 0u8..=255,
    ) {
        let mut bytes = CORPUS[pick].as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = value;
        import_all(&bytes, "mutated");
    }
}
