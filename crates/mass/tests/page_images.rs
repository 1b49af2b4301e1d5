//! Page images as the buffer pool meets them: hostile ones (`decode`
//! answers `Err(CorruptPage)` or a page every accessor of which stays in
//! bounds — never a panic) and real ones (a miss allocates a small
//! constant, whatever the record count).

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;
use vamana_mass::page::{Page, PAGE_HEADER, PAGE_SIZE};
use vamana_mass::pager::PageStore;
use vamana_mass::{MassError, MassStore, SharedPager, StoreFormat};

/// Counts this thread's allocations (a `realloc` is one: it goes through
/// `alloc`), so tests running beside this one do not disturb the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers to `System` for every operation; the counter is a
// thread-local `Cell` of an integer, which has no destructor and
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A document with every record shape: attributes, repeated (dictionary)
/// and unique values, comments, PIs, one value long enough to overflow.
fn document() -> String {
    let long = "lorem ipsum ".repeat(120);
    let mut xml = String::from("<?xml version=\"1.0\"?><site><?pi target data?><regions>");
    for i in 0..1500 {
        let cat = ["sports", "books", "music"][i % 3];
        xml.push_str(&format!(
            "<item id=\"item{i}\" category=\"{cat}\"><name>item-{i}</name>\
             <location>United States</location><!--c{i}--><payment>Cash</payment></item>"
        ));
    }
    xml.push_str(&format!(
        "</regions><description>{long}</description></site>"
    ));
    xml
}

/// Every page image of [`document`] loaded in `format`.
fn images(format: StoreFormat) -> &'static [Vec<u8>] {
    static V1: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    static V2: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    let cell = match format {
        StoreFormat::V1 => &V1,
        StoreFormat::V2 => &V2,
    };
    cell.get_or_init(|| {
        let mut pager = SharedPager::new();
        let mut store = MassStore::with_pager(Box::new(pager.clone()), 64);
        store.set_format(format).unwrap();
        store.load_xml("doc", &document()).unwrap();
        let images: Vec<_> = (0..pager.page_count())
            .map(|id| pager.read_page(id).unwrap())
            .collect();
        assert!(images.len() >= 4, "{format:?}: want several pages");
        images
    })
}

/// The invariant: `Err(CorruptPage)`, or a page on which every accessor
/// of every record returns (in-bounds data or an `Err`).
fn survives(image: Vec<u8>) {
    let page = match Page::decode(image, 7) {
        Ok(page) => page,
        Err(MassError::CorruptPage { page: 7, .. }) => return,
        Err(other) => panic!("decode failed with {other:?}, not CorruptPage"),
    };
    assert!(page.encoded_size() <= PAGE_SIZE - PAGE_HEADER);
    for i in 0..page.len() {
        let view = page.view(i);
        assert_eq!(view.key, page.key(i));
        assert_eq!((view.kind, view.name), (page.kind(i), page.name(i)));
        assert_eq!(page.find(view.key), Ok(i), "keys are strictly ascending");
        let _ = page.value(i);
        let _ = page.record(i);
    }
    assert_eq!(page.views(0..page.len()).count(), page.len());
    assert_eq!(page.first_key().is_some(), !page.is_empty());
    assert_eq!(page.last_key().is_some(), !page.is_empty());
    let _ = page.to_buf();
}

fn arb_format() -> impl Strategy<Value = StoreFormat> {
    prop_oneof![Just(StoreFormat::V1), Just(StoreFormat::V2)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Bit flips anywhere in a real image (most land in the body, where
    /// they hit key lengths, `lcp`s, suffix and value lengths, tags).
    #[test]
    fn bit_flips_never_panic(
        format in arb_format(),
        page in any::<proptest::sample::Index>(),
        flips in proptest::collection::vec((any::<proptest::sample::Index>(), 0u8..8), 1..6),
    ) {
        let images = images(format);
        let mut image = images[page.index(images.len())].clone();
        let used = PAGE_HEADER + Page::decode(image.clone(), 0).unwrap().encoded_size();
        for (at, bit) in flips {
            image[at.index(used)] ^= 1 << bit;
        }
        survives(image);
    }

    /// Bytes overwritten with arbitrary values: lengths far past the page
    /// end, `lcp`s beyond any predecessor, non-UTF-8 values.
    #[test]
    fn overwritten_bytes_never_panic(
        format in arb_format(),
        page in any::<proptest::sample::Index>(),
        writes in proptest::collection::vec((any::<proptest::sample::Index>(), any::<u8>()), 1..6),
    ) {
        let images = images(format);
        let mut image = images[page.index(images.len())].clone();
        let used = PAGE_HEADER + Page::decode(image.clone(), 0).unwrap().encoded_size();
        for (at, byte) in writes {
            image[PAGE_HEADER + at.index(used - PAGE_HEADER)] = byte;
        }
        survives(image);
    }

    /// A truncated or inflated record count, up to the largest a header
    /// can state.
    #[test]
    fn any_record_count_never_panics(
        format in arb_format(),
        page in any::<proptest::sample::Index>(),
        count in any::<u16>(),
    ) {
        let images = images(format);
        let mut image = images[page.index(images.len())].clone();
        image[2..4].copy_from_slice(&count.to_le_bytes());
        survives(image);
    }

    /// Images that are nothing but noise behind either magic.
    #[test]
    fn noise_never_panics(
        format in arb_format(),
        count in 0u16..64,
        body in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut image = vec![0u8; PAGE_SIZE];
        image[..2].copy_from_slice(match format {
            StoreFormat::V1 => b"AM",
            StoreFormat::V2 => b"CM",
        });
        image[2..4].copy_from_slice(&count.to_le_bytes());
        image[PAGE_HEADER..PAGE_HEADER + body.len()].copy_from_slice(&body);
        survives(image);
    }
}

/// A v2 image holding `body` after a header that claims `count` records.
fn v2_image(count: u16, body: &[u8]) -> Vec<u8> {
    let mut image = vec![0u8; PAGE_SIZE];
    image[..2].copy_from_slice(b"CM");
    image[2..4].copy_from_slice(&count.to_le_bytes());
    image[PAGE_HEADER..PAGE_HEADER + body.len()].copy_from_slice(body);
    image
}

// Element (kind 1) with a name: meta 0x21, name id 5.
const A: &[u8] = &[0, 2, 0x40, 0, 0x21, 5]; // key [40 00]
const A_CHILD: &[u8] = &[2, 2, 0x41, 0, 0x21, 5]; // key [40 00 41 00]
const A_CHILD_WHOLE: &[u8] = &[0, 4, 0x40, 0, 0x41, 0, 0x21, 5]; // the same, not front-coded

#[test]
fn the_named_corruptions_are_errors() {
    let decode = |count, body: &[u8]| Page::decode(v2_image(count, body), 0);
    let page = decode(2, &[A, A_CHILD].concat()).expect("the uncorrupted pair decodes");
    assert_eq!(page.key(1), [0x40, 0, 0x41, 0]);

    // `lcp` beyond the predecessor (and with no predecessor at all).
    assert!(decode(2, &[A, &[3, 2, 0x41, 0, 0x21, 5]].concat()).is_err());
    assert!(decode(1, &[1, 2, 0x41, 0, 0x21, 5]).is_err());
    // Suffix length past the page end.
    assert!(decode(1, &[0, 0xFF, 0x7F, 0x40, 0, 0x21, 5]).is_err());
    // Inline value length past the page end (text record, tag 1).
    assert!(decode(1, &[0, 2, 0x40, 0, 0x0B, 0xFF, 0x7F, b'x']).is_err());
    // Unsorted and duplicate keys.
    assert!(decode(2, &[A_CHILD_WHOLE, A].concat()).is_err());
    assert!(decode(2, &[A, &[2, 0, 0x21, 5]].concat()).is_err());
    // A key that stops inside a label, and one with an empty label.
    assert!(decode(1, &[0, 1, 0x40, 0x21, 5]).is_err());
    assert!(decode(1, &[0, 3, 0x40, 0, 0, 0x21, 5]).is_err());
    // An inflated count runs into the zero padding: an empty, unsorted key.
    assert!(decode(3, &[A, A_CHILD].concat()).is_err());
    // A count no page can hold is refused before anything is allocated.
    assert!(decode(u16::MAX, A).is_err());

    // A non-UTF-8 inline value decodes; the value alone is an error.
    let page = decode(1, &[0, 2, 0x40, 0, 0x0B, 2, 0xFF, 0xFE]).expect("decodes");
    assert_eq!(page.key(0), [0x40, 0]);
    assert!(page.value(0).is_err());
    assert!(page.record(0).is_err() && page.to_records().is_err());
}

#[test]
fn decoding_allocates_a_constant_whatever_the_record_count() {
    for (format, most) in [(StoreFormat::V1, 1), (StoreFormat::V2, 2)] {
        let images = images(format);
        let mut lens = Vec::new();
        for image in images {
            let image = image.clone();
            let before = ALLOCS.with(Cell::get);
            let page = Page::decode(image, 0).unwrap();
            let allocs = ALLOCS.with(Cell::get) - before;
            // The slot table and, on v2, the key arena; the image is the
            // caller's. Not one allocation per record, key or value.
            assert!(
                allocs <= most,
                "{format:?}: {allocs} allocations for {} records",
                page.len()
            );
            lens.push(page.len());
        }
        // The bound held on full pages and on the short last one alike.
        let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        assert!(*max > 100 && max > min, "{format:?}: page sizes {lens:?}");
    }
}
