(* Fail when an exported lib/ value has no user outside its own
   compilation unit.

   Usage: exports BUILD_DIR, after [dune build @check] (which also writes
   the typed trees of executables and tests); BUILD_DIR is normally
   [_build/default].

   The declarations are the [val]s of every lib/ interface's typed tree
   ([.cmti]), submodules included. The uses are the identifiers of every
   implementation's typed tree ([.cmt]) under BUILD_DIR: libraries,
   executables and tests alike. Both sides are matched on the
   declaration's [Shape.Uid.t], so a use through a module alias
   ([module J = Json], a library's wrapper module) still counts. Prints
   one line per unused value and exits 1 if there is any. *)

let rec files dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then files path else [ path ])

let () =
  let cmts =
    files Sys.argv.(1)
    |> List.filter (fun f -> Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti")
    |> List.map Cmt_format.read_cmt
  in
  (* The uids of values another unit names. An interface and its
     implementation number their uids separately, so a use inside the
     declaring unit could collide with an exported uid: skip those. *)
  let used = Hashtbl.create 4096 and unit = ref "" in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
     | Texp_ident (_, _, { val_uid = Item { comp_unit; _ } as uid; _ }) when comp_unit <> !unit ->
         Hashtbl.replace used uid ()
     | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  List.iter
    (fun (c : Cmt_format.cmt_infos) ->
      match c.cmt_annots with
      | Implementation str ->
          unit := c.cmt_modname;
          iter.structure iter str
      | _ -> ())
    cmts;
  let unused = ref [] in
  let rec scan path (sg : Typedtree.signature) =
    List.iter
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd when not (Hashtbl.mem used vd.val_val.val_uid) ->
            unused := (path ^ vd.val_name.txt) :: !unused
        | Tsig_module { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ }
          ->
            scan (path ^ m ^ ".") sg
        | _ -> ())
      sg.sig_items
  in
  List.iter
    (fun (c : Cmt_format.cmt_infos) ->
      match (c.cmt_annots, c.cmt_sourcefile) with
      | Interface sg, Some file when String.starts_with ~prefix:"lib/" file ->
          let m = String.capitalize_ascii (Filename.remove_extension (Filename.basename file)) in
          scan (file ^ ": " ^ m ^ ".") sg
      | _ -> ())
    cmts;
  List.iter print_endline (List.sort_uniq compare !unused);
  if !unused <> [] then exit 1
