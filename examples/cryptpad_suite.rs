//! The paper's stateful use case (§4.1): an end-to-end encrypted
//! collaboration suite whose server runs in a Revelio VM.
//!
//! ```text
//! cargo run --example cryptpad_suite
//! ```

use revelio::extension::MonitoredSession;
use revelio::world::SimWorld;
use revelio_cryptpad::client::PadSecret;
use revelio_cryptpad::server::{decode_fetch_response, pad_router, PadStore};
use revelio_http::message::Request;

fn post(
    session: &mut MonitoredSession,
    path: &str,
    body: Vec<u8>,
) -> Result<Vec<u8>, Box<dyn std::error::Error>> {
    let response = session.send(&Request::post(path, body))?;
    if !response.is_success() {
        return Err(format!("{path} returned {}", response.status).into());
    }
    Ok(response.body)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== End-to-end encrypted collaboration suite on Revelio ==\n");

    // 1. Deploy the pad server inside a Revelio VM.
    let store = PadStore::new();
    let mut world = SimWorld::new(11);
    let fleet = world.deploy_fleet("pads.example.org", 1, pad_router(store.clone()))?;
    println!("pad server deployed at https://pads.example.org");

    // 2. The user attests the server BEFORE typing anything — closing
    //    CryptPad's "you must trust the served JavaScript" gap (§4.1).
    let extension = world.extension();
    extension.register_site("pads.example.org", vec![fleet.golden_measurement]);
    let mut session = extension.open_monitored("pads.example.org")?;
    println!(
        "server attested; measurement {}\n",
        fleet.golden_measurement
    );

    // 3. Create a pad and write two encrypted drafts. The pad secret
    //    lives in the URL fragment and never reaches the server.
    let secret = PadSecret::from_fragment("#/2/pad/edit/8FbNsQkc");
    let id_bytes = post(&mut session, "/pad/create", Vec::new())?;
    let pad_id = u64::from_le_bytes(id_bytes.clone().try_into().expect("8 bytes"));
    println!("created pad {pad_id}");

    let drafts: [&[u8]; 2] = [
        b"Meeting notes: budget 100 CHF",
        b"Meeting notes: budget 250 CHF",
    ];
    for (i, draft) in drafts.iter().enumerate() {
        let mut body = pad_id.to_le_bytes().to_vec();
        body.extend_from_slice(&secret.encrypt_edit(i as u64, draft)?);
        post(&mut session, "/pad/append", body)?;
    }
    println!("two encrypted drafts appended\n");

    // 4. What the operator sees: ciphertext only.
    let view = store.operator_view();
    println!("operator's view of pad {}:", view[0].0);
    for (i, edit) in view[0].1.edits.iter().enumerate() {
        println!("  edit {i}: {} opaque bytes", edit.len());
        assert!(!edit.windows(6).any(|w| w == b"budget"));
    }

    // 5. A collaborator with the pad secret reads the current document.
    let fetched = post(&mut session, "/pad/fetch", pad_id.to_le_bytes().to_vec())?;
    let history = decode_fetch_response(&fetched)?;
    let document = secret.render_document(&history)?;
    println!(
        "\ncollaborator decrypts: {:?}",
        String::from_utf8_lossy(&document)
    );

    // 6. A tampering operator is caught by the client's AEAD.
    store.tamper_edit(pad_id, 0, b"swapped ciphertext".to_vec())?;
    let fetched = post(&mut session, "/pad/fetch", pad_id.to_le_bytes().to_vec())?;
    let tampered = decode_fetch_response(&fetched)?;
    match secret.decrypt_history(&tampered) {
        Err(e) => println!("tampering by the operator detected: {e}"),
        Ok(_) => unreachable!("AEAD must reject swapped ciphertext"),
    }

    println!("\ncryptpad suite example complete");
    Ok(())
}
